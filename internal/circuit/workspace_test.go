package circuit

import (
	"math"
	"testing"

	"deepheal/internal/mathx"
)

// refSolve is the solve loop before the circuit kept a workspace: a fresh
// MNA matrix and right-hand side every Newton iteration, a fresh iterate
// per solve. The workspace path must match it bit for bit.
func refSolve(t *testing.T, c *Circuit, x0 []float64, dt float64, prev []float64) []float64 {
	t.Helper()
	topo, err := c.prepare()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, topo.dim)
	copy(x, x0)
	for iter := 0; iter < maxNewtonIter; iter++ {
		ctx := &stampCtx{a: mathx.NewDense(topo.dim, topo.dim), rhs: make([]float64, topo.dim), x: x, dt: dt, prev: prev}
		for i := 0; i < len(c.nodeList); i++ {
			ctx.a.Add(i, i, gmin)
		}
		for _, e := range c.elems {
			e.stamp(ctx)
		}
		sol, err := mathx.SolveLU(ctx.a, ctx.rhs)
		if err != nil {
			t.Fatal(err)
		}
		if !topo.nonlinear {
			return sol
		}
		maxDelta := 0.0
		for i := 0; i < len(c.nodeList); i++ {
			maxDelta = math.Max(maxDelta, math.Abs(sol[i]-x[i]))
		}
		alpha := 1.0
		if maxDelta > dampMaxDeltaV {
			alpha = dampMaxDeltaV / maxDelta
		}
		for i := range x {
			x[i] += alpha * (sol[i] - x[i])
		}
		if maxDelta < newtonTolV {
			return x
		}
	}
	t.Fatal(ErrNoConverge)
	return nil
}

// switchedRC is a nonlinear network with a switch, a capacitor and two
// sources: an NMOS pass device discharging a capacitor through a ladder.
func switchedRC(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	mustBuild(t, c.AddVSource("VDD", "vdd", Ground, 1))
	mustBuild(t, c.AddVSource("VG", "gate", Ground, 0.8))
	mustBuild(t, c.AddResistor("R1", "vdd", "a", 200))
	mustBuild(t, c.AddSwitch("S1", "a", "b", 10, 1e9))
	mustBuild(t, c.AddCapacitor("C1", "b", Ground, 1e-12))
	mustBuild(t, c.AddNMOS("M1", "b", "gate", Ground, MOSParams{K: 1e-3, Vth: 0.3, Lambda: 0.05}))
	return c
}

// requireSolution asserts sol carries exactly the vector x under c's
// current names.
func requireSolution(t *testing.T, c *Circuit, sol *Solution, x []float64, label string) {
	t.Helper()
	for name, idx := range c.nodes {
		if math.Float64bits(sol.Voltage(name)) != math.Float64bits(x[idx]) {
			t.Fatalf("%s: V(%s) = %v, reference %v", label, name, sol.Voltage(name), x[idx])
		}
	}
	for name, v := range c.vsources {
		if got, want := sol.SourceCurrent(name), -x[v.branch]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: I(%s) = %v, reference %v", label, name, got, want)
		}
	}
}

// TestWorkspaceMatchesFreshSolve runs a DC solve and then a transient with
// switch and source changes on one Circuit, and checks every solution
// against the fresh-allocation reference.
func TestWorkspaceMatchesFreshSolve(t *testing.T) {
	c := switchedRC(t)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	x := refSolve(t, c, nil, 0, nil)
	requireSolution(t, c, sol, x, "DC")

	tr, err := c.NewTransient()
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		mustBuild(t, c.SetSwitch("S1", step%10 < 5))
		mustBuild(t, c.SetVSource("VG", 0.5+0.02*float64(step)))
		sol, err := tr.Step(1e-11)
		if err != nil {
			t.Fatal(err)
		}
		x = refSolve(t, c, x, 1e-11, x)
		requireSolution(t, c, sol, x, "transient step")
	}
}

// TestSolutionSurvivesNetlistGrowth solves, grows the netlist by a node and
// a voltage source, and solves again: the earlier Solution must answer
// exactly as before, and the new one must see the new names.
func TestSolutionSurvivesNetlistGrowth(t *testing.T) {
	c := switchedRC(t)
	before, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.NewTransient()
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := tr.Step(1e-11)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"vdd", "gate", "a", "b", "late", Ground}
	sources := []string{"VDD", "VG", "V2"}
	type answers struct {
		v   []float64
		has []bool
		i   []float64
	}
	record := func(s *Solution) answers {
		var a answers
		for _, n := range nodes {
			a.v = append(a.v, s.Voltage(n))
			a.has = append(a.has, s.Has(n))
		}
		for _, n := range sources {
			a.i = append(a.i, s.SourceCurrent(n))
		}
		return a
	}
	same := func(a, b answers) bool {
		for k := range a.v {
			if math.Float64bits(a.v[k]) != math.Float64bits(b.v[k]) || a.has[k] != b.has[k] {
				return false
			}
		}
		for k := range a.i {
			if math.Float64bits(a.i[k]) != math.Float64bits(b.i[k]) {
				return false
			}
		}
		return true
	}
	wantBefore, wantStepped := record(before), record(stepped)

	mustBuild(t, c.AddVSource("V2", "late", Ground, 0.3))
	mustBuild(t, c.AddResistor("R2", "late", "b", 1000))
	after, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(1e-11); err != nil {
		t.Fatal(err)
	}
	if got := record(before); !same(got, wantBefore) {
		t.Errorf("DC solution changed after the netlist grew: %+v, was %+v", got, wantBefore)
	}
	if got := record(stepped); !same(got, wantStepped) {
		t.Errorf("transient solution changed after the netlist grew: %+v, was %+v", got, wantStepped)
	}
	if before.Has("late") || before.SourceCurrent("V2") != 0 {
		t.Error("an earlier solution sees names added after it")
	}
	if !after.Has("late") || !mathx.AlmostEqual(after.Voltage("late"), 0.3, 1e-9) || after.SourceCurrent("V2") == 0 {
		t.Errorf("grown netlist: Has(late)=%v V(late)=%g I(V2)=%g", after.Has("late"), after.Voltage("late"), after.SourceCurrent("V2"))
	}
	requireSolution(t, c, after, refSolve(t, c, nil, 0, nil), "DC after growth")
	if !tr.Solution().Has("late") {
		t.Error("a transient stepped after growth does not see the new node")
	}
}

// TestSolutionsDoNotAliasWorkspace keeps solutions from a run of steps and
// DC solves and checks later solves leave every one of them unchanged.
func TestSolutionsDoNotAliasWorkspace(t *testing.T) {
	c := switchedRC(t)
	tr, err := c.NewTransient()
	if err != nil {
		t.Fatal(err)
	}
	var sols []*Solution
	var want [][]float64
	for step := 0; step < 12; step++ {
		mustBuild(t, c.SetSwitch("S1", step%2 == 0))
		s, err := tr.Step(1e-11)
		if err != nil {
			t.Fatal(err)
		}
		if step%3 == 0 {
			d, err := c.DC()
			if err != nil {
				t.Fatal(err)
			}
			sols = append(sols, d)
			want = append(want, append([]float64(nil), d.x...))
		}
		sols = append(sols, s, tr.Solution())
		want = append(want, append([]float64(nil), s.x...), append([]float64(nil), s.x...))
	}
	for k, s := range sols {
		for i := range want[k] {
			if math.Float64bits(s.x[i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("solution %d entry %d changed by later solves: %v, was %v", k, i, s.x[i], want[k][i])
			}
		}
	}
}
