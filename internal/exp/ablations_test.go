package exp

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tb Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tb.Title, row, col)
	}
	return tb.Rows[row][col]
}

func numCell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.Fields(cell(t, tb, row, col))[0], "%")
	s = strings.Split(s, "/")[0]
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q not numeric", row, col, cell(t, tb, row, col))
	}
	return v
}

// TestAblationRetransScheme: per-VC retransmission buffers must contain a
// VC-targeted attack much better than the shared worst-case buffer.
func TestAblationRetransScheme(t *testing.T) {
	tb, err := AblationRetransScheme(1)
	if err != nil {
		t.Fatal(err)
	}
	shared := numCell(t, tb, 0, 1)
	perVC := numCell(t, tb, 1, 1)
	if perVC <= shared*2 {
		t.Fatalf("per-VC buffers (%.3f) should far outperform shared (%.3f) under a VC attack", perVC, shared)
	}
}

// TestAblationRoutingUnderFlood: XY must retain at least as much throughput
// as the classic turn models under a flood (the paper's Section III-A
// remark).
func TestAblationRoutingUnderFlood(t *testing.T) {
	tb, err := AblationRoutingUnderFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	retained := map[string]float64{}
	for i, row := range tb.Rows {
		retained[row[0]] = numCell(t, tb, i, 3)
	}
	for _, adaptive := range []string{"west-first", "north-last", "negative-first"} {
		if retained["xy"] < retained[adaptive]-1.0 { // percentage points
			t.Errorf("xy retained %.1f%% vs %s %.1f%% — paper says xy wins below saturation",
				retained["xy"], adaptive, retained[adaptive])
		}
	}
	// Every algorithm must still deliver most traffic (flood congests, it
	// does not deadlock).
	for name, r := range retained {
		if r < 50 {
			t.Errorf("%s retained only %.1f%% under flood", name, r)
		}
	}
}

// TestAblationPayloadCounter: states grow quadratically, area linearly.
func TestAblationPayloadCounter(t *testing.T) {
	tb := AblationPayloadCounter()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	prevStates, prevArea := -1.0, -1.0
	for i := range tb.Rows {
		states := numCell(t, tb, i, 1)
		area := numCell(t, tb, i, 3)
		if states <= prevStates || area <= prevArea {
			t.Fatalf("row %d not monotone: states=%g area=%g", i, states, area)
		}
		prevStates, prevArea = states, area
	}
	// Y=8 (the reference) gives 28 two-wire payload states.
	if got := numCell(t, tb, 2, 1); got != 28 {
		t.Fatalf("Y=8 states %g, want 28", got)
	}
}

// TestAblationDetectorHistory: every capacity must still find the trojans
// (the repeat-fault funnel is per-link), and detection latency must not
// degrade with larger tables.
func TestAblationDetectorHistory(t *testing.T) {
	tb, err := AblationDetectorHistory(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		if !strings.HasPrefix(row[3], "2/") {
			t.Errorf("row %d (%s entries): trojans %s, want 2/2", i, row[0], row[3])
		}
	}
	small := numCell(t, tb, 0, 1)
	big := numCell(t, tb, len(tb.Rows)-1, 1)
	if big > small {
		t.Errorf("large history (%g cycles) slower than 1-entry history (%g)", big, small)
	}
}

// TestAblationEscalationOrder: both orders mitigate; invert-first pays less
// stall (1-cycle undo), scramble-first is the default.
func TestAblationEscalationOrder(t *testing.T) {
	tb, err := AblationEscalationOrder(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if tput := numCell(t, tb, i, 1); tput < 1.5 {
			t.Errorf("order %q failed to mitigate: tput %.3f", tb.Rows[i][0], tput)
		}
	}
	if scrStall, invStall := numCell(t, tb, 0, 3), numCell(t, tb, 1, 3); invStall >= scrStall {
		t.Errorf("invert-first stall %g not below scramble-first %g", invStall, scrStall)
	}
}

// TestAblationPlacement: cold links strike nothing; the target-flow-hottest
// placement disrupts the victim.
func TestAblationPlacement(t *testing.T) {
	tb, err := AblationPlacement(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	hotStrikes := numCell(t, tb, 0, 2)
	coldStrikes := numCell(t, tb, 3, 2)
	if coldStrikes != 0 {
		t.Errorf("cold links struck %g times", coldStrikes)
	}
	if hotStrikes == 0 {
		t.Error("target-flow-hottest placement never struck")
	}
	hotGoodput := numCell(t, tb, 0, 3)
	coldGoodput := numCell(t, tb, 3, 3)
	if hotGoodput >= coldGoodput {
		t.Errorf("victim goodput under hot placement (%g) not below cold placement (%g)",
			hotGoodput, coldGoodput)
	}
}

// TestDetectabilityStudy: the kill switch hides everything from logic
// testing; narrow triggers are excited when armed, wide ones never; the
// side-channel campaign stays at its false-positive floor for every
// variant.
func TestDetectabilityStudy(t *testing.T) {
	tb := DetectabilityStudy(1)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if row[2] != "0.0000" {
			t.Errorf("row %d: dormant trojan excited: %s", i, row[2])
		}
		det := numCell(t, tb, i, 4)
		if det > 0.10 {
			t.Errorf("%s: side-channel detection %.3f should sit at the fp floor", row[0], det)
		}
	}
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	if byName["Full"][3] != "never" || byName["Mem"][3] != "never" {
		t.Error("wide triggers should survive 100k vectors")
	}
	if byName["VC"][3] == "never" || byName["Dest"][3] == "never" {
		t.Error("narrow triggers should be excited when armed")
	}
}

// TestMigrationStudy: L-Ob variants unblock the chip; migration alone
// cannot (wedged flits persist); the migration rows actually migrate.
func TestMigrationStudy(t *testing.T) {
	tb, err := MigrationStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	noneGood := numCell(t, tb, 0, 1)
	lobGood := numCell(t, tb, 1, 1)
	if lobGood <= noneGood {
		t.Errorf("l-ob victim goodput %g not above unmitigated %g", lobGood, noneGood)
	}
	for _, name := range []string{"s2s l-ob", "l-ob + migration"} {
		if byName[name][3] != "0/16" {
			t.Errorf("%s left blocked routers: %s", name, byName[name][3])
		}
	}
	for _, name := range []string{"migration", "l-ob + migration"} {
		if byName[name][4] != "1" {
			t.Errorf("%s migrations = %s, want 1", name, byName[name][4])
		}
	}
	if byName["none"][4] != "0" {
		t.Error("unmitigated run migrated")
	}
}

// TestClosedLoopStudy: the attack must hurt closed-loop transaction
// throughput far more than open-loop packet throughput, and L-Ob must
// restore it.
func TestClosedLoopStudy(t *testing.T) {
	tb, err := ClosedLoopStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	healthy := numCell(t, tb, 0, 1)
	attacked := numCell(t, tb, 1, 1)
	lob := numCell(t, tb, 2, 1)
	if attacked > healthy*0.5 {
		t.Errorf("closed-loop attack impact too small: %.3f vs healthy %.3f", attacked, healthy)
	}
	if lob < healthy*0.9 {
		t.Errorf("l-ob restored only %.3f of healthy %.3f", lob, healthy)
	}
}

// TestSaturationCurve: latency must be flat at low load and blow up past
// the knee; delivered throughput must be monotone in offered load up to
// saturation.
func TestSaturationCurve(t *testing.T) {
	tb, err := SaturationCurve()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	low := numCell(t, tb, 0, 2)
	mid := numCell(t, tb, 2, 2)
	high := numCell(t, tb, len(tb.Rows)-1, 2)
	if mid > low*2 {
		t.Errorf("latency not flat below the knee: %.1f vs %.1f", mid, low)
	}
	if high < low*4 {
		t.Errorf("no saturation blow-up: %.1f vs %.1f", high, low)
	}
	prev := 0.0
	for i := range tb.Rows {
		d := numCell(t, tb, i, 1)
		if d+0.2 < prev {
			t.Errorf("delivered throughput dropped at row %d: %.3f after %.3f", i, d, prev)
		}
		prev = d
	}
}

// TestEscalationOrderAblationConcurrentWithFig10 runs the escalation-order
// ablation over and over while fig10 — whose s2s-lob points walk the
// escalation order on every NACKed flit — runs on another goroutine. The
// ablation must carry its order in its run config: an order swapped in
// shared state would reach fig10's wires and move its rows off the golden
// file. Under -race any shared write between the two is reported; with or
// without it, fig10 must match the golden file and every ablation pass its
// serial rendering.
func TestEscalationOrderAblationConcurrentWithFig10(t *testing.T) {
	fig10, ok := Lookup(Registry("blackscholes"), "fig10")
	if !ok {
		t.Fatal("registry is missing fig10")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "experiments-all-mesh.txt"))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := AblationEscalationOrder(1)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Render()

	var got string
	done := make(chan error)
	go func() {
		var err error
		got, err = RenderAll(RunAll([]Experiment{fig10}, 1, 1))
		done <- err
	}()
	for passes := 1; ; passes++ {
		tb, err := AblationEscalationOrder(1)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Render() != want {
			t.Fatalf("ablation pass %d beside fig10 diverged from its serial run:\n got: %q\nwant: %q", passes, tb.Render(), want)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got, want := section(got, "fig10"), section(string(golden), "fig10"); got != want {
				t.Fatalf("fig10 run beside %d ablation passes diverged from the golden file:\n got: %q\nwant: %q", passes, got, want)
			}
			return
		default:
		}
	}
}

// section returns the body of one "==== id ====" block of rendered output
// (up to the next banner or the end).
func section(rendered, id string) string {
	banner := "==== " + id + " ====\n"
	i := strings.Index(rendered, banner)
	if i < 0 {
		return ""
	}
	body := rendered[i+len(banner):]
	if j := strings.Index(body, "==== "); j >= 0 {
		body = body[:j]
	}
	return body
}
