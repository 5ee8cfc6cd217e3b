package orderer

import "context"

// Solo is the single-node consenter: envelopes are ordered by arrival at
// the one OSN, blocks are cut on BatchSize or BatchTimeout. As the paper
// notes, Solo has a single point of failure and is meant for development
// and testing; the experiments use it as the consensus-free baseline.
// Each channel gets its own cut loop, so channels order concurrently.
type Solo struct {
	lanes
	// in holds each channel's cut-loop input.
	in map[string]chan []byte
}

var _ Consenter = (*Solo)(nil)

// NewSolo attaches a Solo consenter to the OSN.
func NewSolo(o *Orderer) *Solo {
	s := &Solo{lanes: newLanes(), in: make(map[string]chan []byte)}
	for _, ch := range o.Channels() {
		in := make(chan []byte, laneDepth)
		s.in[ch] = in
		s.add(func() {
			o.cutLoop(in, s.ctx.Done(), func(batch [][]byte) { o.emitBatch(ch, batch) })
		})
	}
	o.SetConsenter(s)
	return s
}

// Submit implements Consenter.
func (s *Solo) Submit(ctx context.Context, channel string, env []byte) error {
	in, ok := s.in[channel]
	if !ok {
		return ErrUnknownChannel
	}
	return s.enqueue(ctx, in, env)
}
