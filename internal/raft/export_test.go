package raft

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// LogLength returns the number of entries retained above the
// compaction base (before any compaction this is the full log length,
// excluding the sentinel).
func (n *Node) LogLength() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log) - 1
}

// EntryAt returns the log entry at the given index.
func (n *Node) EntryAt(index uint64) (Entry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if index <= n.baseIndexLocked() || index > n.lastIndexLocked() {
		return Entry{}, false
	}
	return n.entryLocked(index), true
}
