package rl

import (
	"slices"
	"sync"
)

// agents is the process's one pool of released agents. OSDS trains one
// agent per search, and a planning service runs searches back to back over
// a handful of fleet shapes; without the pool each search allocates two
// networks, their targets, two Adam states, the update workspaces and a
// replay buffer that regrows from empty, and drops them all when it
// returns. An agent is sized by its shape alone, so a released agent can
// serve any later New of that shape: New re-initialises it in place (see
// init), which makes a pooled agent fresh by construction. The GC still
// releases whatever stays idle over two collections.
var agents agentPool

// agentPool keeps one sync.Pool per agent shape. The shape list only
// grows, by one small entry per distinct shape the process ever trains;
// the agents in it are the GC's to release.
type agentPool struct {
	mu     sync.Mutex
	shapes []*shapePool // guarded by mu
}

// shapePool holds the released agents of one shape: everything an agent's
// buffers are sized by.
type shapePool struct {
	stateDim, actionDim, bufferCap int
	hidden                         []int
	agents                         sync.Pool // of *Agent
}

// pool returns the pool of cfg's shape, adding it on first use.
func (p *agentPool) pool(cfg Config) *shapePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.shapes {
		if s.stateDim == cfg.StateDim && s.actionDim == cfg.ActionDim &&
			s.bufferCap == cfg.BufferCap && slices.Equal(s.hidden, cfg.Hidden) {
			return s
		}
	}
	s := &shapePool{
		stateDim:  cfg.StateDim,
		actionDim: cfg.ActionDim,
		bufferCap: cfg.BufferCap,
		hidden:    slices.Clone(cfg.Hidden),
	}
	p.shapes = append(p.shapes, s)
	return s
}

// Release hands the agent back for a later New of its shape to reuse. The
// caller must not touch the agent, or anything it returned, afterwards.
func (a *Agent) Release() {
	a.home.agents.Put(a)
}
