package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark: the smoke
// tests re-run it with PERFBENCH_MAIN=1 and benchmark flags.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench runs the benchmark at tiny sizes and returns its standard
// output, standard error and exit error.
func runBench(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--tiny", "--seconds", "0.4", "--workdir", t.TempDir()}, args...)...)
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func lastJSON(t *testing.T, out string) runResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, out)
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json in both modes and
// checks that every metric it names is reported with its unit, that
// the oracle ran, and that every verdict passed it.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				out, stderr, err := runBench(t, "--workload", w.Name, "--seed", "3", "--trace", trace)
				if err != nil {
					t.Fatalf("run failed: %v\n%s%s", err, out, stderr)
				}
				res := lastJSON(t, out)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out, m.Name) {
						t.Errorf("metric %s not printed by name", m.Name)
					}
				}
				if !strings.Contains(out, "oracle decided") {
					t.Errorf("no oracle note in output:\n%s", out)
				}
			})
		}
	}
}

// TestSmokeFault checks that a verdict disagreeing with the oracle fails
// the run: the oracle's expected verdict for one spec is made wrong.
func TestSmokeFault(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			out, stderr, err := runBench(t, "--workload", w, "--seed", "3", "--inject-fault")
			if err == nil {
				t.Fatalf("run with a wrong expected verdict succeeded:\n%s", out)
			}
			if !strings.Contains(stderr, w) {
				t.Errorf("failure does not name the workload: %s", stderr)
			}
			if res := lastJSON(t, out); res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d, want a reported failure", res.Correct, res.Failed)
			}
		})
	}
}

// TestSameSeedSameInputs checks that a seed determines the corpus.
func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloads {
		fp := func(seed int64) string {
			w, err := newWorkload(&options{workload: name, seed: seed}, tinySizes, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return w.fingerprint()
		}
		if a, b := fp(5), fp(5); a != b {
			t.Errorf("%s: seed 5 gave corpora %s and %s", name, a, b)
		}
		if a, b := fp(5), fp(6); a == b {
			t.Errorf("%s: seeds 5 and 6 gave the same corpus %s", name, a)
		}
	}
}
