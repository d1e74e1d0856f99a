package circuit

import (
	"errors"
	"fmt"
	"math"

	"deepheal/internal/mathx"
)

// solver options.
const (
	maxNewtonIter = 200
	newtonTolV    = 1e-9
	dampMaxDeltaV = 0.3
	gmin          = 1e-12 // leak to ground on every node for robustness
)

// ErrNoConverge is returned when Newton iteration fails to converge.
var ErrNoConverge = errors.New("circuit: newton iteration did not converge")

// topology is what a solve needs to know about the netlist's structure:
// the MNA dimension, whether Newton has to iterate, and the name → row
// table that Solutions read through. Every Add* call drops the circuit's
// topology and the next solve rebuilds it, so the table is built once per
// netlist shape rather than once per step. A Solution keeps the table it
// was solved with: a netlist that grows later leaves it unchanged.
type topology struct {
	dim       int
	nonlinear bool
	nodes     map[string]int // node name → row (ground excluded)
	branches  map[string]int // voltage-source name → branch-current row
}

// prepare returns the circuit's topology, rebuilding it — and the MNA
// workspace sized by it — after the netlist changed.
func (c *Circuit) prepare() (*topology, error) {
	if c.topo != nil {
		return c.topo, nil
	}
	// Every voltage source gets its branch-current row after the nodes.
	dim := len(c.nodeList)
	for _, e := range c.elems {
		if v, ok := e.(*vsourceElem); ok {
			v.branch = dim
			dim++
		}
	}
	if dim == 0 {
		return nil, errors.New("circuit: empty netlist")
	}
	t := &topology{
		dim:      dim,
		nodes:    make(map[string]int, len(c.nodes)),
		branches: make(map[string]int, len(c.vsources)),
	}
	for name, idx := range c.nodes {
		t.nodes[name] = idx
	}
	for name, v := range c.vsources {
		t.branches[name] = v.branch
	}
	for _, e := range c.elems {
		if !e.linear() {
			t.nonlinear = true
			break
		}
	}
	c.topo = t
	c.a = mathx.NewDense(dim, dim)
	c.rhs = make([]float64, dim)
	return t, nil
}

// solve runs damped Newton iteration in place on x, which holds the
// initial guess on entry and the solution on success (len(x) is the
// topology's dimension; on error x holds a partial iterate). dt and prev
// configure transient companions (dt = 0 for DC). The MNA system is
// assembled into the circuit's own workspace, so a solve allocates
// nothing.
func (c *Circuit) solve(t *topology, x []float64, dt float64, prev []float64) error {
	ctx := &c.ctx
	*ctx = stampCtx{a: c.a, rhs: c.rhs, x: x, dt: dt, prev: prev}
	for iter := 0; iter < maxNewtonIter; iter++ {
		// Assemble.
		c.a.Zero()
		clear(c.rhs)
		for i := 0; i < len(c.nodeList); i++ {
			c.a.Add(i, i, gmin)
		}
		for _, e := range c.elems {
			e.stamp(ctx)
		}
		sol, err := mathx.SolveLU(c.a, c.rhs)
		if err != nil {
			return fmt.Errorf("circuit: %w", err)
		}
		if !t.nonlinear {
			copy(x, sol)
			return nil
		}
		// Damped update on node voltages; branch currents move freely.
		maxDelta := 0.0
		for i := 0; i < len(c.nodeList); i++ {
			d := math.Abs(sol[i] - x[i])
			if d > maxDelta {
				maxDelta = d
			}
		}
		alpha := 1.0
		if maxDelta > dampMaxDeltaV {
			alpha = dampMaxDeltaV / maxDelta
		}
		converged := maxDelta < newtonTolV
		for i := range x {
			x[i] += alpha * (sol[i] - x[i])
		}
		if converged {
			return nil
		}
	}
	return ErrNoConverge
}

// DC computes the DC operating point (capacitors open).
func (c *Circuit) DC() (*Solution, error) {
	t, err := c.prepare()
	if err != nil {
		return nil, err
	}
	x := make([]float64, t.dim)
	if err := c.solve(t, x, 0, nil); err != nil {
		return nil, err
	}
	return &Solution{x: x, topo: t}, nil
}

// Transient is an incremental transient analysis: initialise from a DC
// operating point (or zero state), then call Step repeatedly. Switch and
// source values may be changed between steps to model mode transitions.
type Transient struct {
	c    *Circuit
	topo *topology // the topology x was solved with
	x    []float64
	prev []float64 // previous-step state, reused by every Step
	t    float64
}

// NewTransient starts a transient from the circuit's DC operating point.
func (c *Circuit) NewTransient() (*Transient, error) {
	sol, err := c.DC()
	if err != nil {
		return nil, err
	}
	return &Transient{c: c, topo: sol.topo, x: sol.x, prev: make([]float64, len(sol.x))}, nil
}

// Time returns the simulated time in seconds.
func (tr *Transient) Time() float64 { return tr.t }

// Step advances the transient by dt seconds and returns the new solution.
// On error the transient's state is left as it was.
func (tr *Transient) Step(dt float64) (*Solution, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("circuit: transient step %g must be positive", dt)
	}
	t, err := tr.c.prepare()
	if err != nil {
		return nil, err
	}
	if t.dim != len(tr.x) {
		// The netlist grew since the last step: carry the state over into
		// the new shape, new rows starting from zero.
		x := make([]float64, t.dim)
		copy(x, tr.x)
		tr.x, tr.prev = x, make([]float64, t.dim)
	}
	copy(tr.prev, tr.x)
	if err := tr.c.solve(t, tr.x, dt, tr.prev); err != nil {
		copy(tr.x, tr.prev)
		return nil, err
	}
	tr.topo = t
	tr.t += dt
	return tr.Solution(), nil
}

// Solution returns the current state as a named Solution.
func (tr *Transient) Solution() *Solution {
	return &Solution{x: append([]float64(nil), tr.x...), topo: tr.topo}
}
