package mem

import "fmt"

// CheckConsistency validates the protocol invariant at quiescence (no
// transactions or transient directory entries outstanding): any line cached
// Shared must be recorded at its home as shared with that node a member, and
// any line cached Exclusive must be owned by that node. Silent evictions
// legitimately leave stale directory pointers, so only the cache→directory
// direction is checked. It returns the first violation found.
func (f *Fabric) CheckConsistency() error {
	for _, c := range f.Ctrls {
		if len(c.txns) != 0 {
			return fmt.Errorf("node %d: %d transactions outstanding at quiescence", c.node, len(c.txns))
		}
	}
	for _, home := range f.Ctrls {
		node := home.node
		err := home.dir.each(func(line Addr, e *dirEntry) error {
			switch e.state {
			case dPendR, dPendW, dPendInv:
				return fmt.Errorf("home %d line %#x: transient directory state at quiescence", node, uint64(line))
			}
			if n := e.numDeferred(); n != 0 {
				return fmt.Errorf("home %d line %#x: %d requests still deferred", node, uint64(line), n)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, c := range f.Ctrls {
		err := c.cache.each(func(l *cline) error {
			home := f.Ctrls[f.Store.Home(l.tag)]
			e := home.dir.get(l.tag)
			if e == nil {
				return fmt.Errorf("node %d caches %#x (%v) but home %d has no entry",
					c.node, uint64(l.tag), l.state, home.node)
			}
			switch l.state {
			case Shared:
				if e.state != dShared || !e.hasSharer(c.node) {
					return fmt.Errorf("node %d caches %#x Shared but home state=%d member=%v",
						c.node, uint64(l.tag), e.state, e.hasSharer(c.node))
				}
			case Exclusive:
				if e.state != dExcl || int(e.owner) != c.node {
					return fmt.Errorf("node %d caches %#x Exclusive but home state=%d owner=%d",
						c.node, uint64(l.tag), e.state, e.owner)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
