package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{7}, 0.99, 7},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // 0: none qualifies
	}{
		{0, 0}, {1, 0}, {19, 0},
		{20, 50}, {37, 50},
		{40, 75}, {90, 75},
		{95, 90}, {850, 90},
		{1000, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if !ok {
			p = 0
		}
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
	}
	// The defining property, checked directly on samples: at least ten
	// values lie strictly above the reported percentile, and the next
	// higher candidate would leave fewer.
	for _, n := range []int{20, 57, 100, 333, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g=%g has %d samples beyond it", n, s.TailP, s.Tail, beyond)
		}
		for _, p := range tailPercentiles {
			if p <= s.TailP {
				break
			}
			higher := quantile(xs, p/100)
			above := 0
			for _, x := range xs {
				if x > higher {
					above++
				}
			}
			if above >= 10 {
				t.Errorf("n=%d: reported p%g but p%g also has %d samples beyond it", n, s.TailP, p, above)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "campaign.Run", Start: 0, End: 100},
		// Overlapping children (two workers): their union is [10, 50).
		{ID: 2, Parent: 1, Name: "campaign.cell", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "campaign.cell", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "game.solve", Start: 90, End: 120},
		// A grandchild reduces its own parent, not the root.
		{ID: 5, Parent: 3, Name: "tiots.advance", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the emitted metrics must
// match.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestRefCPU(t *testing.T) {
	// A machine at reference speed leaves the CPU time as it is; one at
	// half speed (readings twice yardRef) halves it.
	if got := refCPU(3*time.Second, yardRef, yardRef); math.Abs(got-3) > 1e-9 {
		t.Errorf("at reference speed: %g, want 3", got)
	}
	if got := refCPU(3*time.Second, yardRef, 3*yardRef); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("at half speed: %g, want 1.5", got)
	}
}

func TestYardstickReadings(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	for i := 0; i < 2; i++ {
		d, err := y.read()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Errorf("reading %d took %v of CPU", i, d)
		}
	}
	if len(y.readings) != 2 || !strings.Contains(y.speedNote(), "2 yardstick readings") {
		t.Errorf("readings %v, note %q", y.readings, y.speedNote())
	}
}

func TestBenchmarkJSONListsEveryWorkloadAndLayerMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] is %s/%s, the benchmark emits %s/%s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// result is the closing JSON line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// checkReport prints the outcome as the command would and checks the
// closing JSON against BENCHMARK.json, and that every end-to-end metric
// the workload names appears on a human line.
func checkReport(t *testing.T, out *outcome, traced bool, human []string) {
	t.Helper()
	var buf bytes.Buffer
	if code := report(out, &buf); code != 0 {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	b := readBenchmarkJSON(t)
	want := map[string]string{}
	if traced {
		for _, m := range b.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range b.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result carries %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
		if !traced && !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
		}
	}
	for _, name := range append(human, "fail_ratio") {
		if !strings.Contains(buf.String(), "metric "+name+" = ") {
			t.Errorf("no human line for %s", name)
		}
	}
}

var campaignHuman = []string{"setup_s", "test_runs_per_cpu_s", "solves_per_cpu_s", "peak_rss_mb",
	"campaign_s", "campaign_cpu_s", "test_runs_per_s", "solves_per_s"}

// Tiny campaigns with their own recorded digests: smartlight without
// mutants, and LEP n=2 with its exhaustive mutants.
var (
	smokeSmartlight = campaignSpec{model: "smartlight", mutants: -1, rows: 2,
		digest: "b371ab97ac066ea44579f49ca50ed8fb06a6c58614571a65ee2adad8e1f04fc3"}
	smokeLEP = campaignSpec{model: "lep", lepN: 2, rows: 0,
		digest: "ce9cc91aea657d9f9e14a5170a4b5200cfe9e6868ac803ef387d5a2520244b21"}
)

func TestSmokeCampaignWorkloads(t *testing.T) {
	for _, spec := range []*campaignSpec{&smokeSmartlight, &smokeLEP} {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := &config{seed: 3, seconds: time.Millisecond, trace: traced, log: &log,
				spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			out, err := runCampaign(spec, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.model, traced, err)
			}
			checkReport(t, out, traced, campaignHuman)
			if traced {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: spans not written: %v", spec.model, err)
				}
			}
		}
	}
}

func TestSmokeServeMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts tigad")
	}
	bin := filepath.Join(t.TempDir(), "tigad")
	if out, err := exec.Command("go", "build", "-o", bin, "tigatest/cmd/tigad").CombinedOutput(); err != nil {
		t.Fatalf("building tigad: %v\n%s", err, out)
	}
	spec := serveMixed
	spec.setupReps = 1
	for _, traced := range []bool{false, true} {
		var log bytes.Buffer
		cfg := &config{seed: 3, seconds: 300 * time.Millisecond, trace: traced, tigad: bin, log: &log,
			spans: filepath.Join(t.TempDir(), "spans.jsonl")}
		out, err := runServe(&spec, cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v\n%s", traced, err, log.String())
		}
		checkReport(t, out, traced, []string{"setup_s", "test_runs_per_cpu_s", "solves_per_cpu_s", "peak_rss_mb",
			"test_runs_per_s", "solves_per_s", "run_p50_ms", "run_p99_ms", "synth_p50_ms", "synth_p90_ms", "req_per_s"})
	}
}

func TestColdPoolExpectationsMatchPool(t *testing.T) {
	pool := coldPool()
	exp, err := loadExpectations(pool)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range pool {
		if seen[p] {
			t.Fatalf("pool purpose %d repeats %q", i, p)
		}
		seen[p] = true
		if c := exp[i]; c != expectStrict && c != expectCoop && c != expectNone {
			t.Fatalf("purpose %d has outcome %q", i, c)
		}
	}
}
