// Smoke tests for the binaries: every command and example must build,
// and the deterministic demos must produce identical output run-to-run.
// These trees carry no unit tests of their own — this is the floor that
// keeps them from silently rotting as the internal packages move.
package perpos_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainPackages returns the repo-relative paths of every buildable main
// package under cmd/ and examples/.
func mainPackages(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, tree := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if _, err := os.Stat(filepath.Join(tree, e.Name(), "main.go")); err != nil {
				continue
			}
			out = append(out, "./"+tree+"/"+e.Name())
		}
	}
	if len(out) == 0 {
		t.Fatal("no main packages found under cmd/ or examples/")
	}
	return out
}

// buildBinaries compiles every main package into a shared temp dir once
// per test binary and returns name -> path.
func buildBinaries(t *testing.T) map[string]string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	bins := make(map[string]string)
	for _, pkg := range mainPackages(t) {
		name := filepath.Base(pkg)
		out := filepath.Join(dir, name)
		cmd := exec.Command(goBin, "build", "-o", out, pkg)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, b)
		}
		bins[name] = out
	}
	return bins
}

// runBin executes a built binary and returns its combined output.
func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	return runBinIn(t, "", bin, args...)
}

// runBinIn is runBin with dir as the working directory ("" = the
// repository root). A demo run from an empty directory proves it reads
// no file of the repository.
func runBinIn(t *testing.T, dir, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// runBinErr is the variant for exercising failure exits (the benchmark
// regression gate is SUPPOSED to exit non-zero on a regression).
func runBinErr(bin string, args ...string) (string, error) {
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// writeFile writes text to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readFile returns the file's text.
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// dropLines removes the lines of text that contain substr.
func dropLines(text, substr string) string {
	var kept []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, substr) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

func TestBinariesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	bins := buildBinaries(t)

	// Deterministic end-to-end runs: same seed, same output, twice.
	t.Run("quickstart", func(t *testing.T) {
		first := runBin(t, bins["quickstart"])
		if first == "" {
			t.Fatal("quickstart printed nothing")
		}
		if again := runBin(t, bins["quickstart"]); again != first {
			t.Errorf("quickstart output not deterministic:\n--- first\n%s--- second\n%s", first, again)
		}
	})

	t.Run("roomnumber", func(t *testing.T) {
		first := runBin(t, bins["roomnumber"])
		if first == "" {
			t.Fatal("roomnumber printed nothing")
		}
		if again := runBin(t, bins["roomnumber"]); again != first {
			t.Errorf("roomnumber output not deterministic:\n--- first\n%s--- second\n%s", first, again)
		}
	})

	t.Run("perpos-run-roomnumber", func(t *testing.T) {
		args := []string{"-pipeline", "roomnumber", "-seed", "3", "-max", "5"}
		first := runBin(t, bins["perpos-run"], args...)
		if first == "" {
			t.Fatal("perpos-run printed nothing")
		}
		if again := runBin(t, bins["perpos-run"], args...); again != first {
			t.Errorf("perpos-run output not deterministic:\n--- first\n%s--- second\n%s", first, again)
		}
	})

	t.Run("perpos-run-targets", func(t *testing.T) {
		out := runBinIn(t, t.TempDir(), bins["perpos-run"], "-targets", "3", "-seed", "5")
		for _, want := range []string{"target-000", "target-002", "positions total"} {
			if !strings.Contains(out, want) {
				t.Errorf("multi-target output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-cluster", func(t *testing.T) {
		out := runBin(t, bins["perpos-run"], "-cluster", "2", "-targets", "12", "-seed", "3")
		for _, want := range []string{
			"tracking 12 targets across 2 nodes",
			"declared dead",
			"failover complete: every session resumed on a survivor",
			"rebalance to n3 done",
			"counters: handoffs=",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("cluster demo output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-chaos", func(t *testing.T) {
		out := runBinIn(t, t.TempDir(), bins["perpos-run"], "-chaos", "-seed", "7")
		for _, want := range []string{
			"starting fault script",
			"provider -> TEMPORARILY_UNAVAILABLE",
			"degraded to GPS branch",
			"provider -> AVAILABLE",
			"survived injected outage",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("chaos demo output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-chaos-script", func(t *testing.T) {
		out := runBin(t, bins["perpos-run"], "-chaos", "-seed", "7",
			"-chaos-script", "examples/configs/chaos-fusion.json")
		for _, want := range []string{
			`fault script "chaos-fusion": 2 steps`,
			"degraded to GPS branch",
			"survived injected outage",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("scripted chaos output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-rollout", func(t *testing.T) {
		out := runBinIn(t, t.TempDir(), bins["perpos-run"], "-rollout", "-seed", "11")
		for _, want := range []string{
			"fleet live: 24 sessions on revision 1 (fusion-upgrade)",
			"rollout fusion-upgrade 1->2: 24 sessions, 6 canaries",
			"rollout ramping: active revision now 2",
			"rollout counters: started=1 completed=1 rolled_back=0 upgraded=24 reverted=0 failed=0",
			"rollout complete: fleet on revision 2 (24/24 sessions, 6 canaries, 0 dropped)",
			"fleet still delivering",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("rollout demo output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-rollout-fail", func(t *testing.T) {
		out := runBinIn(t, t.TempDir(), bins["perpos-run"], "-rollout-fail", "-seed", "11")
		for _, want := range []string{
			"fleet live: 24 sessions on revision 1 (fusion-upgrade)",
			"rollout gate tripped",
			"rollout counters: started=1 completed=0 rolled_back=1 upgraded=6 reverted=6 failed=0",
			"rollout rolled back",
			"fleet back on revision 1: 24/24 sessions, 6 canaries reverted, active revision 1",
			"fleet still delivering",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("rollout rollback demo output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-rules", func(t *testing.T) {
		out := runBin(t, bins["perpos-run"], "-rules", "examples/configs/rules-fusion.json", "-seed", "7")
		for _, want := range []string{
			"rule accuracy-filter  when attr:hdop > 4",
			"insert hdop-filter between parser and interpreter",
			"rules engaged: hdop-filter spliced into the live pipeline",
			"supervisor-conflict",
			"swap rule stood down; positions kept flowing",
			"swap rule re-engaged on its own",
			"accuracy recovered: rules disengaged, graph restored",
			"rule provider-swap    engagements=2 disengagements=2",
			"self-adaptation demo complete",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("rules demo output missing %q:\n%s", want, out)
			}
		}
		// The flap damper must have absorbed the whole script: no rule
		// may end the demo benched.
		if strings.Contains(out, "quarantined=true") {
			t.Errorf("a rule ended the demo quarantined:\n%s", out)
		}
	})

	t.Run("perpos-run-checkpoint-resume", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		out := runBin(t, bins["perpos-run"], "-chaos", "-seed", "7", "-checkpoint-dir", dir)
		for _, want := range []string{
			"survived injected outage",
			"evicted and resumed from " + dir,
			"resumed session delivered",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("checkpoint demo output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-run-metrics", func(t *testing.T) {
		out := runBin(t, bins["perpos-run"], "-targets", "2", "-seed", "5",
			"-metrics-addr", "127.0.0.1:0")
		if !strings.Contains(out, "metrics: http://127.0.0.1:") {
			t.Errorf("no metrics endpoint announced:\n%s", out)
		}
		// The final snapshot is the process's own /metrics scrape: the
		// lifecycle counters must reflect the two-target replay and the
		// hot-path instrumentation must have counted real traffic.
		for _, want := range []string{
			"=== final /metrics snapshot ===",
			`"sessions_created": 2`,
			`"sessions_evicted": 2`,
			`"spans_emitted"`,
			`"tree_depth"`,
			`"gps"`,
			`"particle-filter"`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("metrics snapshot missing %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, `"spans_emitted": 0,`) {
			t.Errorf("metrics snapshot counted no spans despite a replayed workload:\n%s", out)
		}
	})

	t.Run("perpos-inspect-trace", func(t *testing.T) {
		out := runBin(t, bins["perpos-inspect"], "-trace")
		for _, want := range []string{
			"end-to-end traces",
			"channel gps->particle-filter:0",
			"channel particle-filter->app:0",
			"logical=",
			"process=",
			"end-to-end:",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("trace output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("perpos-bench-gate", func(t *testing.T) {
		dir := t.TempDir()
		// Two -count runs of each row, as `go test -count 2` prints them.
		bench := writeFile(t, dir, "bench.txt", "goos: linux\n"+
			"cpu: Test CPU @ 1.00GHz\n"+
			"BenchmarkRuntimeSessions/sessions_100-8  3  330000000 ns/op  15.00 ceiling/session  4600 samples/s  13.80 samples/session\n"+
			"BenchmarkRuntimeSessions/sessions_100-8  3  331000000 ns/op  15.00 ceiling/session  4650 samples/s  13.90 samples/session\n"+
			"BenchmarkRoomAt-8  20000  80.1 ns/op  20.1 grid-ns/lookup  60.0 linear-ns/lookup  0 B/op  0 allocs/op\n"+
			"BenchmarkRoomAt-8  20000  81.9 ns/op  19.9 grid-ns/lookup  62.0 linear-ns/lookup  0 B/op  0 allocs/op\n"+
			"BenchmarkRuntimeSaturated/sessions_100-8  200000  5500 ns/op  181000 samples/s  1339 B/op  21 allocs/op\n"+
			"BenchmarkRuntimeSaturated/sessions_100-8  200000  5400 ns/op  185000 samples/s  1339 B/op  21 allocs/op\n"+
			"PASS\n")
		gate := writeFile(t, dir, "BENCH.json", `{
  "command": "go test -bench",
  "measured_on": {"nproc": 1, "cpu": "old", "go": "go1.0"},
  "checks": [
    {"name": "paced sessions", "row": "BenchmarkRuntimeSessions/sessions_100",
     "metric": "samples/session", "over": {"metric": "ceiling/session"}, "min": 0.8, "median": 0},
    {"name": "RoomAt grid/linear", "row": "BenchmarkRoomAt", "metric": "grid-ns/lookup",
     "over": {"metric": "linear-ns/lookup"}, "max": 0.5, "median": 0},
    {"name": "saturated allocs", "row": "BenchmarkRuntimeSaturated/sessions_100",
     "metric": "allocs/op", "max": 21, "median": 0}
  ]
}`)
		out := runBin(t, bins["perpos-bench"], "-gate", gate, bench)
		if !strings.Contains(out, "all 3 checks hold") {
			t.Errorf("gate did not pass checks within their bounds:\n%s", out)
		}

		// -json rewrites the medians (13.85/15, 20/61, 21) and the
		// machine, and keeps the bounds.
		remeasured := filepath.Join(dir, "remeasured.json")
		runBin(t, bins["perpos-bench"], "-gate", gate, bench, "-json", remeasured)
		data, err := os.ReadFile(remeasured)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`"median": 0.9233`, `"median": 0.3279`, `"median": 21`,
			`"cpu": "Test CPU @ 1.00GHz"`, `"min": 0.8`, `"max": 0.5`,
		} {
			if !strings.Contains(string(data), want) {
				t.Errorf("rewritten gate file missing %q:\n%s", want, data)
			}
		}

		// A slow paced row (a stalled step halves its samples) fails.
		slow := writeFile(t, dir, "slow.txt", strings.ReplaceAll(strings.ReplaceAll(
			readFile(t, bench), "13.80 samples/session", "7.00 samples/session"),
			"13.90 samples/session", "7.10 samples/session"))
		out, err = runBinErr(bins["perpos-bench"], "-gate", gate, slow)
		if err == nil {
			t.Fatalf("gate passed a paced row at half its ceiling:\n%s", out)
		}
		if !strings.Contains(out, "FAILED") || !strings.Contains(out, "1 of 3 checks failed") {
			t.Errorf("slow-row output missing diagnosis:\n%s", out)
		}

		// A row that vanished from the run fails too: deleting the
		// regressing benchmark must not green the gate.
		pruned := writeFile(t, dir, "pruned.txt", dropLines(readFile(t, bench), "BenchmarkRuntimeSessions/"))
		out, err = runBinErr(bins["perpos-bench"], "-gate", gate, pruned)
		if err == nil {
			t.Fatalf("gate passed with a gated row missing from the run:\n%s", out)
		}
		if !strings.Contains(out, "MISSING") {
			t.Errorf("missing-row output lacks diagnosis:\n%s", out)
		}

		// An allocation regression fails even with better throughput,
		// and a run without -benchmem cannot skip the allocs check.
		allocs := writeFile(t, dir, "allocs.txt", strings.ReplaceAll(strings.ReplaceAll(
			readFile(t, bench), "21 allocs/op", "29 allocs/op"), "5500 ns/op", "4000 ns/op"))
		out, err = runBinErr(bins["perpos-bench"], "-gate", gate, allocs)
		if err == nil {
			t.Fatalf("gate passed 29 allocs/op against an exact 21:\n%s", out)
		}
		if !strings.Contains(out, "saturated allocs") || !strings.Contains(out, "FAILED") {
			t.Errorf("alloc regression output missing diagnosis:\n%s", out)
		}
		noMem := writeFile(t, dir, "nomem.txt", strings.ReplaceAll(
			readFile(t, bench), "  1339 B/op  21 allocs/op", ""))
		if out, err := runBinErr(bins["perpos-bench"], "-gate", gate, noMem); err == nil || !strings.Contains(out, "reports no allocs/op") {
			t.Errorf("gate without -benchmem columns: err %v\n%s", err, out)
		}
	})

	t.Run("perpos-bench-ratio", func(t *testing.T) {
		// A within-run ratio: two rows of the SAME invocation, so host
		// speed cancels out and the bound means the same on any machine.
		dir := t.TempDir()
		gate := writeFile(t, dir, "BENCH.json", `{
  "command": "go test -bench",
  "measured_on": {"nproc": 1, "cpu": "old", "go": "go1.0"},
  "checks": [
    {"name": "shipped/bare", "row": "BenchmarkShipped/sessions_100", "metric": "ns/op",
     "over": {"row": "BenchmarkBare/sessions_100"}, "max": 1.25, "median": 0}
  ]
}`)
		paired := writeFile(t, dir, "paired.txt",
			"BenchmarkBare/sessions_100-2  1000  5000 ns/op\n"+
				"BenchmarkShipped/sessions_100-2  1000  5500 ns/op\n")
		out := runBin(t, bins["perpos-bench"], "-gate", gate, paired)
		if !strings.Contains(out, "all 1 checks hold") || !strings.Contains(out, "1.1 ") {
			t.Errorf("ratio gate did not pass a 1.1 ratio under 1.25:\n%s", out)
		}

		// 30% overhead on the shipped row: the gate fails and says which.
		slow := writeFile(t, dir, "slow.txt",
			"BenchmarkBare/sessions_100-2  1000  5000 ns/op\n"+
				"BenchmarkShipped/sessions_100-2  1000  6500 ns/op\n")
		out, err := runBinErr(bins["perpos-bench"], "-gate", gate, slow)
		if err == nil {
			t.Fatalf("ratio gate passed a 1.3 ratio:\n%s", out)
		}
		if !strings.Contains(out, "FAILED") || !strings.Contains(out, "shipped/bare: 1.3, bound <= 1.25") {
			t.Errorf("ratio breach output missing diagnosis:\n%s", out)
		}

		// A ratio whose partner row is missing is a failure, not a
		// silently skipped comparison — from either side.
		for name, text := range map[string]string{
			"lonely-num.txt": "BenchmarkBare/sessions_100-2  1000  5000 ns/op\n",
			"lonely-den.txt": "BenchmarkShipped/sessions_100-2  1000  5500 ns/op\n",
		} {
			lonely := writeFile(t, dir, name, text)
			out, err = runBinErr(bins["perpos-bench"], "-gate", gate, lonely)
			if err == nil {
				t.Fatalf("%s: ratio gate passed with a row missing:\n%s", name, out)
			}
			if !strings.Contains(out, "MISSING") {
				t.Errorf("%s: missing-partner output lacks diagnosis:\n%s", name, out)
			}
		}
	})

	t.Run("saturated-bench-smoke", func(t *testing.T) {
		// One iteration of the saturated benchmark: catches panics or
		// pool-corruption in the flat-out path without paying benchmark
		// runtime. The full run is the CI bench gate's job.
		goBin, err := exec.LookPath("go")
		if err != nil {
			t.Skip("go toolchain not in PATH")
		}
		out, err := exec.Command(goBin, "test", "./internal/runtime/",
			"-run", "^$", "-bench", "BenchmarkRuntimeSaturated/sessions_1$",
			"-benchtime", "1x").CombinedOutput()
		if err != nil {
			t.Fatalf("saturated bench smoke: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "BenchmarkRuntimeSaturated") {
			t.Errorf("saturated bench did not run:\n%s", out)
		}
	})

	t.Run("perpos-bench-list", func(t *testing.T) {
		out := runBin(t, bins["perpos-bench"], "-list")
		if !strings.Contains(out, "E1") || !strings.Contains(out, "E10") {
			t.Errorf("-list output missing experiments:\n%s", out)
		}
	})

	t.Run("perpos-bench-json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bench.json")
		runBin(t, bins["perpos-bench"], "-e", "E2", "-json", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"id": "E2"`, `"ns_op"`} {
			if !strings.Contains(string(data), want) {
				t.Errorf("bench JSON missing %q:\n%s", want, data)
			}
		}
	})
}
