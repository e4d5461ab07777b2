package xag

// Dirty-region tracking: the rewriting engine reuses per-node state (cut
// lists, classifications) across rounds, which is sound only for nodes whose
// entire fanin cone was untouched by the round's substitutions. The network
// records, per epoch, which nodes were created (DirtyCreatedBase) and which
// were substituted (NodeDirty); the engine combines those with its own
// fanin-edge checks when it carries state into the next round. Tracking is
// off (zero cost beyond one branch in Substitute) until BeginDirtyEpoch is
// called.
//
// The invalidation invariant (DESIGN.md §10): a cached per-node fact is
// valid iff no leaf or interior node of the cone it was computed over is
// dirty — created this epoch, substituted this epoch, or fed through an edge
// whose stored target was substituted this epoch.

type dirtyState struct {
	epoch uint32   // 0 = tracking off
	base  int      // nodes with id >= base were created in the current epoch
	stamp []uint32 // node id → epoch of the node's last substitution
}

// BeginDirtyEpoch starts (or restarts) dirty tracking: every node existing
// now is initially clean, and subsequent node creations and Substitute calls
// are recorded until the next BeginDirtyEpoch. The network should be compact
// (no pending substitutions) when an epoch begins, so that an edge resolving
// away from its stored target can only mean the target was substituted this
// epoch.
func (n *Network) BeginDirtyEpoch() {
	n.dirty.epoch++
	if n.dirty.epoch == 0 { // wrapped: restart, stale stamps must not match
		for i := range n.dirty.stamp {
			n.dirty.stamp[i] = 0
		}
		n.dirty.epoch = 1
	}
	n.dirty.base = len(n.nodes)
}

// DirtyCreatedBase returns the node-count watermark of the current epoch:
// nodes with id >= base were created since BeginDirtyEpoch.
func (n *Network) DirtyCreatedBase() int { return n.dirty.base }

// NodeDirty reports whether the node was created or substituted in the
// current epoch. Always false while tracking is off.
func (n *Network) NodeDirty(id int) bool {
	if n.dirty.epoch == 0 {
		return false
	}
	if id >= n.dirty.base {
		return true
	}
	return id < len(n.dirty.stamp) && n.dirty.stamp[id] == n.dirty.epoch
}

// stampDirty records a substitution of id in the current epoch (no-op while
// tracking is off).
func (n *Network) stampDirty(id int) {
	if n.dirty.epoch == 0 {
		return
	}
	if len(n.dirty.stamp) < len(n.nodes) {
		n.dirty.stamp = append(n.dirty.stamp, make([]uint32, len(n.nodes)-len(n.dirty.stamp))...)
	}
	n.dirty.stamp[id] = n.dirty.epoch
}
