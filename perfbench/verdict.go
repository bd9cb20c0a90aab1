package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/service"
	"spm/internal/surveillance"
)

// built is a spec parsed, instrumented and compiled: what a caller of
// check.Run holds before its first verdict.
type built struct {
	spec *spec
	mech *core.CompiledMechanism // the checked mechanism
	bare *core.CompiledMechanism // the program Q, maximality's reference
	pol  core.Policy
	dom  core.Domain
	obs  core.Observation
}

// instrument parses the spec's program and applies its mechanism,
// returning the bare program and the mechanism's flowchart.
func instrument(s *spec) (prog, mech *flowchart.Program, err error) {
	prog, err = flowchart.Parse(s.Src)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: parse: %w", s.Name, err)
	}
	if s.Mech == mechRaw {
		return prog, prog, nil
	}
	variant, err := service.ParseVariant(string(s.Mech))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	mech, err = surveillance.Instrument(prog, lattice.NewIndexSet(s.Allowed...), variant)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: instrument: %w", s.Name, err)
	}
	return prog, mech, nil
}

func observation(s *spec) core.Observation {
	if s.timed() {
		return core.ObserveValueAndTime
	}
	return core.ObserveValue
}

// build does the parse → instrument → Compile work for one spec.
func build(s *spec) (*built, error) {
	prog, mech, err := instrument(s)
	if err != nil {
		return nil, err
	}
	b := &built{
		spec: s,
		pol:  core.NewAllow(s.Arity, s.Allowed...),
		dom:  core.Grid(s.Arity, s.Values...),
		obs:  observation(s),
	}
	if b.bare, err = core.CompileMechanism(core.FromProgram(prog)); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	b.mech = b.bare
	if mech != prog {
		if b.mech, err = core.CompileMechanism(core.FromProgram(mech)); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return b, nil
}

// checkSpec is the built spec as check.Run takes it, for any kind.
func (b *built) checkSpec(kind check.Kind) check.Spec {
	return check.Spec{Kind: kind, Mechanism: b.mech, Program: b.bare, Policy: b.pol, Domain: b.dom, Observation: b.obs}
}

// oracle decides verdicts with the tree-walking interpreter — the
// reference semantics every compiled tier, sweep split, fold, service hop
// and cluster merge must reproduce. It decides each distinct (spec, kind)
// once with the sequential references, which share neither the sweep
// engine nor its per-worker fold with check.Run: core.CheckSoundness and
// core.CheckMaximality (Domain.Enumerate and a map), and for PassCount a
// plain Enumerate over the mechanism. It also certifies reported witness
// pairs by running them on the interpreter.
type oracle struct {
	mu       sync.Mutex
	verdicts map[string]*oracleEntry
	fault    bool        // make one expected verdict wrong (the smoke test)
	injected atomic.Bool // the fault has been injected
}

type oracleEntry struct {
	once sync.Once
	v    check.Verdict
	err  error
}

func newOracle() *oracle { return &oracle{verdicts: make(map[string]*oracleEntry)} }

// interp is the spec's mechanism and program on the interpreter.
type interp struct {
	mech, prog core.Mechanism
	pol        core.Policy
	dom        core.Domain
	obs        core.Observation
}

func newInterp(s *spec) (*interp, error) {
	prog, mech, err := instrument(s)
	if err != nil {
		return nil, err
	}
	return &interp{
		mech: core.FromProgram(mech), prog: core.FromProgram(prog),
		pol: core.NewAllow(s.Arity, s.Allowed...), dom: core.Grid(s.Arity, s.Values...), obs: observation(s),
	}, nil
}

// decide computes the verdict of the given kind sequentially, in
// enumeration order, on the interpreter. Its witnesses are the first
// conflicting pair and the first deviating input in that order, which is
// also what check.Run reports on one sweep worker.
func (in *interp) decide(ctx context.Context, kind check.Kind) (check.Verdict, error) {
	v := check.Verdict{Kind: kind}
	switch kind {
	case check.Soundness:
		rep, err := core.CheckSoundness(in.mech, in.pol, in.dom, in.obs)
		if err != nil {
			return v, err
		}
		v.Checked, v.Sound = rep.Checked, rep.Sound
		v.WitnessA, v.WitnessB, v.ObsA, v.ObsB = rep.WitnessA, rep.WitnessB, rep.ObsA, rep.ObsB
	case check.Maximality:
		rep, err := core.CheckMaximality(in.mech, in.prog, in.pol, in.dom, in.obs)
		if err != nil {
			return v, err
		}
		v.Checked, v.Maximal, v.Witness, v.Reason = rep.Checked, rep.Maximal, rep.Witness, rep.Reason
	case check.PassCount:
		err := in.dom.Enumerate(func(input []int64) error {
			out, err := in.mech.Run(input)
			if err != nil {
				return err
			}
			v.Checked++
			if !out.Violation {
				v.Passes++
			}
			return nil
		})
		if err != nil {
			return v, err
		}
	default:
		return v, fmt.Errorf("oracle: unknown kind %v", kind)
	}
	return v, ctx.Err()
}

// want returns the interpreter's verdict of the given kind for s.
func (o *oracle) want(ctx context.Context, s *spec, kind check.Kind) (check.Verdict, error) {
	key := fmt.Sprintf("%v#%s", kind, s.key())
	o.mu.Lock()
	e, ok := o.verdicts[key]
	if !ok {
		e = &oracleEntry{}
		o.verdicts[key] = e
	}
	o.mu.Unlock()
	e.once.Do(func() {
		in, err := newInterp(s)
		if err != nil {
			e.err = err
			return
		}
		e.v, e.err = in.decide(ctx, kind)
		if e.err == nil && o.fault && o.injected.CompareAndSwap(false, true) {
			// The smoke test's injected fault: one expected verdict
			// is wrong in a field every comparison checks.
			e.v.Sound, e.v.Maximal, e.v.Passes = !e.v.Sound, !e.v.Maximal, e.v.Passes+1
		}
	})
	return e.v, e.err
}

// decided counts the distinct verdicts the oracle computed.
func (o *oracle) decided() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.verdicts)
}

// compare checks one delivered verdict against the interpreter's. The
// sound and maximal bits, Checked and Passes must match exactly; Checked
// is skipped when it is -1, for a surface that does not report it. A
// reported unsound witness pair must be certified on the interpreter:
// the two inputs share a policy view yet observe differently. With exact
// set — a single sweep worker, where witness choice is deterministic —
// witnesses must also equal the interpreter's byte for byte.
func (o *oracle) compare(ctx context.Context, s *spec, got check.Verdict, exact bool) error {
	want, err := o.want(ctx, s, got.Kind)
	if err != nil {
		return fmt.Errorf("oracle: %s: %w", s.Name, err)
	}
	mismatch := func(field string, g, w any) error {
		return fmt.Errorf("%s %v: %s = %v, interpreter says %v", s.Name, got.Kind, field, g, w)
	}
	if got.Checked >= 0 && got.Checked != want.Checked {
		return mismatch("checked", got.Checked, want.Checked)
	}
	switch got.Kind {
	case check.PassCount:
		if got.Passes != want.Passes {
			return mismatch("passes", got.Passes, want.Passes)
		}
	case check.Soundness:
		if got.Sound != want.Sound {
			return mismatch("sound", got.Sound, want.Sound)
		}
		if !got.Sound {
			if err := certify(s, got); err != nil {
				return err
			}
		}
		if exact && !reflect.DeepEqual(
			[]any{got.WitnessA, got.WitnessB, got.ObsA, got.ObsB},
			[]any{want.WitnessA, want.WitnessB, want.ObsA, want.ObsB}) {
			return mismatch("witness", fmt.Sprint(got.WitnessA, got.WitnessB), fmt.Sprint(want.WitnessA, want.WitnessB))
		}
	case check.Maximality:
		if got.Maximal != want.Maximal {
			return mismatch("maximal", got.Maximal, want.Maximal)
		}
		if exact && (!reflect.DeepEqual(got.Witness, want.Witness) || got.Reason != want.Reason) {
			return mismatch("maximality witness", fmt.Sprint(got.Witness, got.Reason), fmt.Sprint(want.Witness, want.Reason))
		}
	}
	return nil
}

// certify runs an unsound verdict's witness pair on the interpreter.
func certify(s *spec, v check.Verdict) error {
	in, err := newInterp(s)
	if err != nil {
		return err
	}
	if len(v.WitnessA) != s.Arity || len(v.WitnessB) != s.Arity {
		return fmt.Errorf("%s: unsound verdict without a witness pair", s.Name)
	}
	if in.pol.View(v.WitnessA) != in.pol.View(v.WitnessB) {
		return fmt.Errorf("%s: witnesses %v and %v do not share a policy view", s.Name, v.WitnessA, v.WitnessB)
	}
	a, errA := in.mech.Run(v.WitnessA)
	b, errB := in.mech.Run(v.WitnessB)
	if errA != nil || errB != nil {
		return fmt.Errorf("%s: witness run: %v %v", s.Name, errA, errB)
	}
	oa, ob := in.obs.Render(a), in.obs.Render(b)
	if oa == ob || oa != v.ObsA || ob != v.ObsB {
		return fmt.Errorf("%s: witnesses observe as %q and %q on the interpreter, verdict says %q and %q", s.Name, oa, ob, v.ObsA, v.ObsB)
	}
	return nil
}

// serviceVerdicts splits a service result into the check verdicts it
// carries: soundness always, maximality when the request asked for it.
func serviceVerdicts(res *service.Result) []check.Verdict {
	out := []check.Verdict{{
		Kind: check.Soundness, Checked: res.Checked, Sound: res.Sound,
		WitnessA: res.WitnessA, WitnessB: res.WitnessB, ObsA: res.ObsA, ObsB: res.ObsB,
	}}
	if res.Maximal != nil {
		out = append(out, check.Verdict{
			Kind: check.Maximality, Checked: -1, Maximal: *res.Maximal,
			Witness: res.MaximalWitness, Reason: res.MaximalReason,
		})
	}
	return out
}

// compareService checks a service result. The service reports one
// Checked count, the soundness pass's, so the maximality verdict is
// compared without one.
func (o *oracle) compareService(ctx context.Context, s *spec, res *service.Result) error {
	if res == nil {
		return fmt.Errorf("%s: job done without a result", s.Name)
	}
	vs := serviceVerdicts(res)
	if want := s.Kind == check.Maximality; want != (len(vs) == 2) {
		return fmt.Errorf("%s: result maximality present=%v, requested=%v", s.Name, len(vs) == 2, want)
	}
	for _, v := range vs {
		if err := o.compare(ctx, s, v, false); err != nil {
			return err
		}
	}
	return nil
}
