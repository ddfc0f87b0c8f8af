package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"querylearn/internal/schema"
)

func TestT1Converges(t *testing.T) {
	tab := T1ExamplesToConvergence(1)
	if len(tab.Rows) < 15 {
		t.Fatalf("T1 rows = %d", len(tab.Rows))
	}
	converged := 0
	total := 0
	for _, row := range tab.Rows {
		if n, err := strconv.Atoi(row[2]); err == nil {
			converged++
			total += n
		}
	}
	if converged < len(tab.Rows)*3/4 {
		t.Errorf("only %d/%d goals converged", converged, len(tab.Rows))
	}
	if avg := float64(total) / float64(converged); avg > 5 {
		t.Errorf("average examples %.1f, paper claims ~2", avg)
	}
}

func TestT2CoverageNearFifteenPercent(t *testing.T) {
	tab := T2XPathMarkCoverage(1)
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "all" {
		t.Fatalf("last row = %v", last)
	}
	total, _ := strconv.Atoi(last[1])
	learned, _ := strconv.Atoi(last[3])
	pct := 100 * float64(learned) / float64(total)
	if pct < 10 || pct > 22 {
		t.Errorf("coverage %.0f%%, want near 15%%", pct)
	}
}

func TestT3SchemaShrinksQueries(t *testing.T) {
	tab := T3Overspecialization(1)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		plain, _ := strconv.Atoi(row[1])
		pruned, _ := strconv.Atoi(row[2])
		if pruned > plain {
			t.Errorf("%s: schema made query bigger (%d > %d)", row[0], pruned, plain)
		}
	}
}

func TestT4DMSFasterThanRegex(t *testing.T) {
	tab := T4SchemaContainment(1)
	if len(tab.Rows) < 3 {
		t.Fatal("too few rows")
	}
	// Every row: DMS containment answers true (loose relaxes tight).
	for _, row := range tab.Rows {
		if row[1] != "true" {
			t.Errorf("row %v: relaxed schema must contain the tight one", row)
		}
	}
}

func TestT6SemijoinNodesGrow(t *testing.T) {
	tab := T6ConsistencyJoinVsSemijoin(1)
	first, _ := strconv.Atoi(strings.Fields(tab.Rows[0][4])[0])
	last, _ := strconv.Atoi(strings.Fields(tab.Rows[len(tab.Rows)-1][4])[0])
	if last < 10*first {
		t.Errorf("semijoin search should blow up: %d -> %d nodes", first, last)
	}
}

func TestT7PruningDominates(t *testing.T) {
	tab := T7Interactions(1)
	for _, row := range tab.Rows {
		questions, _ := strconv.Atoi(row[3])
		pairs, _ := strconv.Atoi(row[1])
		if questions*2 > pairs {
			t.Errorf("row %v: pruning ineffective", row)
		}
	}
}

// TestT7PinsOfflineOrders pins the orders T7 compares with the daemon's at
// scale 1: questions at 10/20/40 tuples per side. A change to the served join
// learner that moves them fails here.
func TestT7PinsOfflineOrders(t *testing.T) {
	want := map[string][]string{
		"random":     {"8", "12", "7"},
		"max-agree":  {"8", "10", "9"},
		"half-split": {"9", "8", "6"},
	}
	got := map[string][]string{}
	for _, row := range T7Interactions(1).Rows {
		got[row[2]] = append(got[row[2]], row[3])
	}
	for order, w := range want {
		if !slices.Equal(got[order], w) {
			t.Errorf("%s: questions %v, want %v", order, got[order], w)
		}
	}
}

func TestT8VersionSpaceCollapses(t *testing.T) {
	tab := T8GraphInteractions(1)
	if len(tab.Rows) != 6 {
		t.Fatalf("want a first and a random row at each of 3 sizes, got %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[6] != "1" {
			t.Errorf("row %v: version space should collapse to one survivor", row)
		}
		if row[7] != "highway.road*" {
			t.Errorf("row %v: learned %s, want the goal highway.road*", row, row[7])
		}
	}
}

func TestT9MajorityBeatsSingleUnderNoise(t *testing.T) {
	tab := T9CrowdCost(1)
	var singleNoisy, votedNoisy string
	for _, row := range tab.Rows {
		if row[1] == "1" && row[2] == "15%" {
			singleNoisy = row[6]
		}
		if row[1] == "5" && row[2] == "15%" {
			votedNoisy = row[6]
		}
	}
	if singleNoisy == "" || votedNoisy == "" {
		t.Fatal("missing noisy rows")
	}
	parse := func(s string) int {
		n, _ := strconv.Atoi(strings.Split(s, "/")[0])
		return n
	}
	if parse(votedNoisy) < parse(singleNoisy) {
		t.Errorf("majority voting (%s) should not underperform single votes (%s)", votedNoisy, singleNoisy)
	}
}

// TestT9PinsRows pins T9's rows other than the daemon's own order.
func TestT9PinsRows(t *testing.T) {
	want := [][]string{
		{"random", "1", "0%", "7.6", "7.6", "0.38", "10/10"},
		{"max-agree", "1", "0%", "7.0", "7.0", "0.35", "10/10"},
		{"max-agree", "1", "15%", "7.9", "7.9", "0.40", "4/10"},
		{"max-agree", "5", "15%", "7.1", "35.5", "1.77", "9/10"},
		{"max-agree", "9", "25%", "7.1", "63.9", "3.19", "9/10"},
	}
	var got [][]string
	for _, row := range T9CrowdCost(1).Rows {
		if row[0] != "first" {
			got = append(got, row)
		}
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Errorf("rows %v, want %v", got, want)
	}
}

func TestT10AllSchemasConverge(t *testing.T) {
	tab := T10SchemaLearning(1)
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[2], ">") {
			t.Errorf("schema %s did not converge (%s docs)", row[0], row[2])
		}
	}
}

func TestT11ServiceServesDialogues(t *testing.T) {
	tab := T11ServiceThroughput(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("expected join and path rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "ERROR" {
			t.Errorf("%s service bench failed: %v", row[0], row[3])
			continue
		}
		if row[2] == "0" || row[3] == "0" {
			t.Errorf("%s: empty bench row %v", row[0], row)
		}
	}
}

func TestT12DurabilityRuns(t *testing.T) {
	tab := T12Durability(1)
	if len(tab.Rows) != 10 {
		t.Fatalf("expected 4 ingest + 3 recovery + 3 first-touch rows, got %d: %v", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[2] == "ERROR" {
			t.Errorf("%s/%s bench failed: %v", row[0], row[1], row[3])
			continue
		}
		if (row[0] == "recover" || row[0] == "first touch") && row[2] == "0" {
			t.Errorf("%s row covered no session: %v", row[0], row)
		}
	}
}

func TestF1AllScenariosSucceed(t *testing.T) {
	tab := F1ExchangeScenarios()
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 scenarios, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "ERROR" {
			t.Errorf("scenario %s failed: %v", row[0], row[3])
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo", Claim: "c",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"== X: demo ==", "paper claim: c", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRandomDMSPairIsContainmentPair(t *testing.T) {
	for seed := int64(1); seed < 6; seed++ {
		tight, loose := RandomDMSPair(seed, 15)
		if !schema.Contained(tight, loose) {
			t.Errorf("seed %d: relaxation must contain the original", seed)
		}
	}
}

func TestHardRegexPairContained(t *testing.T) {
	r1, r2 := HardRegexPair(3)
	if !schema.RegexContained(r1, r2) {
		t.Errorf("identical hard regexes must be contained")
	}
}

func TestChainSchemaSatisfiable(t *testing.T) {
	s := ChainSchema(10)
	if s.Empty() {
		t.Errorf("chain schema should be non-empty")
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tables := All(1)
	// The explicit list (not len(Registry())) guards registration drift: an
	// experiment dropped from — or double-added to — the registry fails here.
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
		"T11", "T12", "T13", "F1", "T14", "T15", "T16", "T17", "T18", "T19"}
	if len(tables) != len(want) {
		t.Errorf("All returned %d tables, want %d", len(tables), len(want))
	}
	ids := map[string]bool{}
	for _, tab := range tables {
		if ids[tab.ID] {
			t.Errorf("duplicate table id %s", tab.ID)
		}
		ids[tab.ID] = true
		if tab.Render() == "" {
			t.Errorf("table %s renders empty", tab.ID)
		}
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %s missing from All", id)
		}
	}
}
