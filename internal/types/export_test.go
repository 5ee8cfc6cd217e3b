package types

// Marshal returns the deterministic encoding of the proposal. Production
// code encodes a proposal only as the prefix of its Transaction envelope
// or for its Hash; tests hold Size, Hash and UnmarshalProposal to this.
func (p *Proposal) Marshal() []byte {
	enc := NewEncoder(256)
	p.encode(enc)
	return enc.Bytes()
}
