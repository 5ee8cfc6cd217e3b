package gossip

// Leader returns the channel's current leader as seen by this node.
func (n *Node) Leader(channel string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	es, ok := n.elections[channel]
	if !ok || es.leader == "" {
		return "", false
	}
	return es.leader, true
}
