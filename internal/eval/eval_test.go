package eval

import (
	"strings"
	"testing"
	"time"
)

// quickConfig keeps the experiment suite testable in seconds.
func quickConfig() Config { return Quick() }

func TestTable1(t *testing.T) {
	res, err := Table1(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vera) != 11 {
		t.Fatalf("Vera rows = %d", len(res.Vera))
	}
	if len(res.New) != 13 { // S1,S2,S5..S15 (S3/S4 are in the Vera half)
		t.Fatalf("New rows = %d", len(res.New))
	}
	for _, row := range res.Vera {
		if row.Stateful {
			t.Errorf("%s misclassified as stateful", row.Name)
		}
	}
	for _, row := range res.New {
		if !row.Stateful {
			t.Errorf("%s misclassified as stateless", row.Name)
		}
		if row.VeraSupports {
			t.Errorf("Vera should not support %s", row.Name)
		}
	}
	if !strings.Contains(res.String(), "Blink (S5)") {
		t.Fatal("render missing systems")
	}
}

func TestFigure6a(t *testing.T) {
	res, err := Figure6a(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The deepest threshold must time the baseline out while P4wn stays fast.
	last := res.Points[len(res.Points)-1]
	if !last.BaselineTimedOut {
		t.Fatal("baseline should time out at threshold 64 with the quick budget")
	}
	if last.P4wnTime > 5*time.Second {
		t.Fatalf("P4wn took %v on threshold 64", last.P4wnTime)
	}
}

func TestFigure6bGreyboxFlat(t *testing.T) {
	res, err := Figure6b(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Points[0], res.Points[len(res.Points)-1]
	// Greybox cost must not scale with structure size (allow 20x noise);
	// the baseline cost must grow or time out.
	if large.P4wnTime > small.P4wnTime*20+50*time.Millisecond {
		t.Fatalf("greybox not size-independent: %v -> %v", small.P4wnTime, large.P4wnTime)
	}
	if !large.BaselineTimedOut && large.BaselineTime < small.BaselineTime {
		t.Fatal("baseline cost should grow with size")
	}
}

func TestFigure6f(t *testing.T) {
	res, err := Figure6f(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Points[len(res.Points)-1]
	if !last.BaselineTimedOut {
		t.Fatal("baseline should time out on 16-packet Blink")
	}
}

func TestFigure7(t *testing.T) {
	res, err := Figure7(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	queries := 0
	for _, r := range res.Rows {
		queries += r.TraceQueries
	}
	if queries == 0 {
		t.Fatal("no oracle queries recorded across systems")
	}
}

func TestFigure8(t *testing.T) {
	res, err := Figure8(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	blink := res.Panels[0]
	if blink.P4wnEstimate.IsZero() {
		t.Fatal("Blink reroute estimate missing")
	}
	// The sampling baseline's finest granularity must be orders of
	// magnitude coarser than the telescoped estimate.
	finest := blink.Sampling[len(blink.Sampling)-1].Granularity
	if blink.P4wnEstimate.Log10() > -6 {
		t.Fatalf("telescoped estimate suspiciously large: %v", blink.P4wnEstimate)
	}
	if finest < 1e-7 {
		t.Fatalf("sampling granularity implausibly fine: %v", finest)
	}
}

func TestFigure9(t *testing.T) {
	res, err := Figure9(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	totalFailed := 0
	for _, r := range res.Rows {
		totalFailed += r.Failed
		if r.Targets == 0 {
			t.Errorf("%s: no targets attempted", r.Name)
		}
	}
	// Generation succeeds for the large majority of rare blocks.
	if totalFailed > 25 {
		t.Fatalf("too many generation failures: %d", totalFailed)
	}
}

func TestFigure10(t *testing.T) {
	res, err := Figure10(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	disrupted := 0
	for _, r := range res.Rows {
		if r.Ratio >= 2 {
			disrupted++
		}
	}
	// The paper reports 2-64x degradation; most workloads must disrupt.
	if disrupted < 9 {
		t.Fatalf("only %d/13 workloads disrupt >= 2x:\n%s", disrupted, res)
	}
}

func TestFigure11(t *testing.T) {
	cfg := quickConfig()
	res, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 13 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		if len(p.Values) < cfg.ReplaySeconds {
			t.Errorf("(%s) series too short: %d", p.Panel, len(p.Values))
		}
	}
}

func TestFigure12(t *testing.T) {
	res, err := Figure12(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) < 100 {
		t.Fatalf("only %d blocks pooled", len(res.Blocks))
	}
	// The correlation: expensive blocks concentrate in the rarest half.
	if res.ExpensiveInRarestHalf <= res.ExpensiveInCommonHalf {
		t.Fatalf("no rank/expense correlation: %d rare vs %d common",
			res.ExpensiveInRarestHalf, res.ExpensiveInCommonHalf)
	}
}

func TestFigure13(t *testing.T) {
	res, err := Figure13(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	diagFrac := float64(res.OnDiagonal) / float64(len(res.Points))
	if diagFrac < 0.5 {
		t.Fatalf("rankings too unstable: only %.0f%% on diagonal", diagFrac*100)
	}
	if res.AvgMovement > 10 {
		t.Fatalf("average movement %.2f too large", res.AvgMovement)
	}
}

func TestAccuracyVsExhaustive(t *testing.T) {
	res, err := AccuracyVsExhaustive(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.ExTimedOut {
			continue
		}
		if r.Gamma > 0.25 {
			t.Errorf("%s: inaccuracy %.3f too high", r.Name, r.Gamma)
		}
		if r.Blocks == 0 {
			t.Errorf("%s: nothing compared", r.Name)
		}
	}
}

func TestOffloadCaseStudy(t *testing.T) {
	res, err := OffloadCaseStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuidedImprovement <= 0.1 {
		t.Fatalf("guided offload improvement %.2f too small", res.GuidedImprovement)
	}
	if res.FullImprovement < res.GuidedImprovement {
		t.Fatal("full offload cannot be slower than guided")
	}
	// Diminishing returns: full offload buys little extra latency but
	// costs much more switch resources.
	extra := res.FullImprovement - res.GuidedImprovement
	if extra > 0.2 {
		t.Fatalf("full offload gains too much over guided: %.2f", extra)
	}
	if res.SRAMRatio < 2 {
		t.Fatalf("full offload should cost much more SRAM: %.1fx", res.SRAMRatio)
	}
}

func TestRenderHelpers(t *testing.T) {
	if fmtTimeout(time.Second, true) != "timeout" {
		t.Fatal("timeout marker broken")
	}
}

func TestAdvCasesResolve(t *testing.T) {
	// Every adversarial case must name a real system, a real block label,
	// and a metric the replay machinery understands.
	seen := map[string]bool{}
	for _, c := range AdvCases() {
		if seen[c.Panel] {
			t.Errorf("duplicate panel %q", c.Panel)
		}
		seen[c.Panel] = true
		m := mustMetaByID(c.SystemID)
		prog := m.Build()
		if prog.NodeByLabel(c.Label) == nil {
			t.Errorf("panel %s: %s has no block %q", c.Panel, m.Name, c.Label)
		}
		switch c.Metric {
		case "cpu", "digest", "recirc", "mirror", "backend", "drop", "backup", "port_imbalance":
		default:
			t.Errorf("panel %s: unknown metric %q", c.Panel, c.Metric)
		}
	}
	if len(seen) != 13 {
		t.Fatalf("want 13 panels, got %d", len(seen))
	}
}

func TestConfigScales(t *testing.T) {
	q, d, f := Quick(), DefaultConfig(), Full()
	if !(q.BaselineBudget < d.BaselineBudget && d.BaselineBudget < f.BaselineBudget) {
		t.Fatal("budgets should grow with scale")
	}
	if q.SampleBudget >= f.SampleBudget {
		t.Fatal("sampling budget should grow with scale")
	}
	if len(q.SizeSweep) > len(d.SizeSweep) {
		t.Fatal("quick sweep should not exceed default")
	}
}

func TestS1toS11Complete(t *testing.T) {
	ms := S1toS11()
	if len(ms) != 11 {
		t.Fatalf("S1toS11 returned %d systems", len(ms))
	}
	for i, m := range ms {
		if m.ID != i+1 {
			t.Fatalf("position %d has ID %d", i, m.ID)
		}
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	if r := byName["state merging"]; !r.OffTimedOut && r.OffTime < r.OnTime {
		t.Fatalf("merging off should cost more: %+v", r)
	}
	if r := byName["greybox data stores"]; !r.OffTimedOut && r.OffTime < r.OnTime*2 {
		t.Fatalf("greybox off should cost much more: %+v", r)
	}
	if r := byName["telescoping"]; r.Note == "" || !strings.Contains(r.Note, "on=") {
		t.Fatalf("telescoping note missing estimates: %+v", r)
	}
}
