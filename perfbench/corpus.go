package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"spm/internal/check"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/progen"
	"spm/internal/service"
)

// mechanism names the protection mechanism a spec checks: the paper's
// surveillance mechanism (untimed M, timed M′), the high-water mark, or
// the bare program used as its own mechanism.
type mechanism string

const (
	mechUntimed   mechanism = "untimed"
	mechTimed     mechanism = "timed"
	mechHighWater mechanism = "highwater"
	mechRaw       mechanism = "raw"
)

// spec is one generated verdict request. Every spec is expressible both
// as an in-process check.Spec and as a service.CheckRequest: the domain is
// a grid (every axis ranges over Values) and the policy is allow(Allowed).
type spec struct {
	Name    string
	Kind    check.Kind
	Src     string
	Mech    mechanism
	Allowed []int
	Values  []int64
	Arity   int
}

// policy renders the allow set in the service's {i,j} syntax.
func (s *spec) policy() string { return lattice.NewIndexSet(s.Allowed...).String() }

// timed reports whether running time is observable: the timed mechanism
// M′ is the one built to be sound under that observation.
func (s *spec) timed() bool { return s.Mech == mechTimed }

// tuples is the grid size Values^Arity.
func (s *spec) tuples() int64 {
	n := int64(1)
	for i := 0; i < s.Arity; i++ {
		n *= int64(len(s.Values))
	}
	return n
}

// request is the spec's wire form. Maximality specs become Maximal
// requests, which the service answers with soundness and maximality.
func (s *spec) request() service.CheckRequest {
	req := service.CheckRequest{
		Program: s.Src,
		Policy:  s.policy(),
		Domain:  s.Values,
		Timed:   s.timed(),
		Maximal: s.Kind == check.Maximality,
	}
	if s.Mech == mechRaw {
		req.Raw = true
	} else {
		req.Variant = string(s.Mech)
	}
	return req
}

// key identifies the spec's content apart from its kind: two specs with
// equal keys get equal verdicts of every kind, so the oracle decides each
// (key, kind) once.
func (s *spec) key() string {
	return fmt.Sprintf("%s|%s|%v|%s", s.Mech, s.policy(), s.Values, s.Src)
}

// fingerprint hashes the corpus — flowchart.Fingerprint of every program
// plus its mechanism, kind, policy and domain — so a run's printed
// fingerprint identifies exactly the inputs it measured.
func fingerprint(specs []*spec) string {
	h := sha256.New()
	for _, s := range specs {
		p, err := flowchart.Parse(s.Src)
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated program does not parse: %v", err))
		}
		fmt.Fprintf(h, "%s|%s|%v|%s|%v|%d\n", flowchart.Fingerprint(p), s.Mech, s.Kind, s.policy(), s.Values, s.Arity)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var haltLine = regexp.MustCompile(`(?m)^(\s*(?:[A-Za-z][A-Za-z0-9]*:)?\s*)halt$`)

// body returns a random loop-free block over x1..x(arity) as DSL lines,
// ending in a line that reads "HALT" where the caller splices its tail.
// progen keeps the block total and varied; the caller's template decides
// where the cost goes.
func body(r *rand.Rand, arity int) string {
	cfg := progen.Config{Arity: arity, MaxDepth: 1, MaxStmts: 3, MaxConst: 3}
	src := flowchart.Print(progen.Generate(r, cfg))
	lines := strings.SplitN(src, "\n", 3) // drop the program and inputs lines
	out := lines[2]
	if n := len(haltLine.FindAllStringIndex(out, -1)); n != 1 {
		panic(fmt.Sprintf("perfbench: generated block has %d halt boxes", n))
	}
	return haltLine.ReplaceAllString(out, "${1}HALT")
}

func inputs(arity int) string {
	xs := make([]string, arity)
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", i+1)
	}
	return strings.Join(xs, " ")
}

// foldProgram is a two-input program whose cost sits in the verdict fold,
// not the runner: a short loop keyed to the outer input x1, a random
// block over x1, and a one-line tail that reads x2. The snapshot stack
// records each row once and replays only the tail for the other values
// of x2.
func foldProgram(r *rand.Rand, name string) string {
	tail := fmt.Sprintf("y := y + (x2 & %d)\n    halt", 1+r.Intn(3))
	return fmt.Sprintf(`program %s
inputs x1 x2
    i := x1 & 3
Spin: if i == 0 goto Go else Dec
Dec: i := i - 1
    goto Spin
Go: i := 0
%s
`, name, strings.Replace(body(r, 1), "HALT", tail, 1))
}

// execProgram is a runner-heavy program over arity inputs: a loop keyed
// to x1 that also reads x2 (work the snapshot stack skips when only inner
// axes change), a read of the middle inputs (so no two rows reach the
// innermost axis in the same state and the row cache cannot answer them),
// then a loop whose trip count comes from the innermost input — work the
// stack cannot skip, and on which batch lanes diverge — and a random
// block over all inputs. The costly part has the same shape for every
// seed; the block varies what the program computes.
func execProgram(r *rand.Rand, name string, arity int) string {
	middle := make([]string, 0, arity)
	for i := 3; i < arity; i++ {
		middle = append(middle, fmt.Sprintf("x%d", i))
	}
	return fmt.Sprintf(`program %s
inputs %s
    i := (x1 & 7) + 20
L1: if i == 0 goto S2 else B1
B1: i := i - 1
    r3 := r3 + x2
    goto L1
S2: r4 := %s
    j := (x%d & 15) + 14
L2: if j == 0 goto D2 else B2
B2: j := j - 1
    r3 := r3 + (j & 3) + r4
    goto L2
D2: r0 := r3 & 7
%s
`, name, inputs(arity), strings.Join(middle, " + "), arity, strings.Replace(body(r, arity), "HALT", "halt", 1))
}

// smallProgram is a fully random program (loops included) for the
// service's compile-miss traffic.
func smallProgram(r *rand.Rand, name string, arity int) string {
	cfg := progen.Config{Arity: arity, MaxDepth: 2, MaxStmts: 3, MaxConst: 3, Loops: true, MaxLoopTrips: 3}
	src := flowchart.Print(progen.Generate(r, cfg))
	return strings.Replace(src, "program gen", "program "+name, 1)
}

// distinctValues draws n distinct sorted values from [lo, lo+span).
func distinctValues(r *rand.Rand, n int, lo, span int64) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		v := lo + r.Int63n(span)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func valueRange(lo int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// sizes scales the generated workloads; the smoke test shrinks them.
type sizes struct {
	FoldValues  int // values per axis of the 2-axis check-fold grid
	ExecValues4 int // values per axis of the 4-axis check-exec grids
	ExecValues5 int // values per axis of the 5-axis check-exec grids
	SmallValues int // serve-mix compile-miss domain, per axis (3 axes)
	MedValues   int // serve-mix fresh-domain requests, per axis (3 axes)
	MergeValues int // values per axis of the 2-axis cluster-merge grid
}

var fullSizes = sizes{FoldValues: 400, ExecValues4: 11, ExecValues5: 7, SmallValues: 3, MedValues: 5, MergeValues: 400}

var tinySizes = sizes{FoldValues: 12, ExecValues4: 3, ExecValues5: 3, SmallValues: 2, MedValues: 3, MergeValues: 12}

// foldCorpus is check-fold's spec list: every mechanism × every kind,
// with policies from allow(1) or allow(2) (one class per value of the
// allowed axis) up to allow(1,2) (one class per tuple).
func foldCorpus(r *rand.Rand, z sizes) []*spec {
	mechs := []mechanism{mechUntimed, mechTimed, mechHighWater, mechRaw}
	kinds := []check.Kind{check.Soundness, check.Maximality, check.PassCount}
	policies := [][]int{{1}, {2}, {1, 2}, {1}}
	values := valueRange(r.Int63n(64), z.FoldValues)
	var out []*spec
	for mi, m := range mechs {
		for ki, k := range kinds {
			name := fmt.Sprintf("fold%d", len(out))
			out = append(out, &spec{
				Name: name, Kind: k, Src: foldProgram(r, name), Mech: m,
				Allowed: policies[(mi+ki)%len(policies)], Values: values, Arity: 2,
			})
		}
	}
	return append(out, extraSpec(r, "fold", len(out), values))
}

// extraSpec is one more untimed allow(2) soundness spec. The corpora run
// every spec equally often, and with k specs the q-quantile of latency
// lies on the boundary between two specs whenever q·k is whole — p50 with
// an even k — where it jumps between their latencies from run to run.
// An odd k keeps p50 and p90 inside one spec's latencies.
func extraSpec(r *rand.Rand, prefix string, n int, values []int64) *spec {
	name := fmt.Sprintf("%s%d", prefix, n)
	return &spec{
		Name: name, Kind: check.Soundness, Src: foldProgram(r, name), Mech: mechUntimed,
		Allowed: []int{2}, Values: values, Arity: 2,
	}
}

// execCorpus is check-exec's spec list: PassCount and Soundness of the
// untimed, high-water and bare-program mechanisms under coarse policies:
// allow() (one class) over a 4-axis grid, allow(1) (one class per value
// of x1) over a 5-axis grid. The timed mechanism is left out: under a
// policy that hides the innermost input it stops at the first loop test,
// so it would measure nothing of the runner.
func execCorpus(r *rand.Rand, z sizes) []*spec {
	mechs := []mechanism{mechUntimed, mechHighWater, mechRaw}
	kinds := []check.Kind{check.PassCount, check.Soundness}
	policies := [][]int{nil, {1}}
	var out []*spec
	for _, m := range mechs {
		for _, k := range kinds {
			for pi, p := range policies {
				// allow(1) over 7 values keeps to 7 classes.
				arity, n := 4, z.ExecValues4
				if pi == 1 {
					arity, n = 5, z.ExecValues5
				}
				name := fmt.Sprintf("exec%d", len(out))
				out = append(out, &spec{
					Name: name, Kind: k, Src: execProgram(r, name, arity), Mech: m,
					Allowed: p, Values: valueRange(0, n), Arity: arity,
				})
			}
		}
	}
	return out
}

// mergeCorpus is cluster-merge's spec list: Soundness and Maximality of
// the three surveillance-family mechanisms, all sound by the paper's
// theorems, so no sharded run short-circuits and every check pays for the
// full shard split, evidence tables and merge.
func mergeCorpus(r *rand.Rand, z sizes) []*spec {
	mechs := []mechanism{mechUntimed, mechTimed, mechHighWater}
	kinds := []check.Kind{check.Soundness, check.Maximality}
	values := valueRange(r.Int63n(64), z.MergeValues)
	var out []*spec
	for mi, m := range mechs {
		for ki, k := range kinds {
			name := fmt.Sprintf("merge%d", len(out))
			out = append(out, &spec{
				Name: name, Kind: k, Src: foldProgram(r, name), Mech: m,
				Allowed: [][]int{{1}, {2}}[(mi+ki)%2], Values: values, Arity: 2,
			})
		}
	}
	return append(out, extraSpec(r, "merge", len(out), values))
}
