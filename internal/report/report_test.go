package report

import (
	"strings"
	"testing"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/stats"
)

func TestTableIText(t *testing.T) {
	s := pipeline.TableI{
		Start:            time.Date(2015, 4, 22, 0, 0, 0, 0, time.UTC),
		End:              time.Date(2016, 5, 11, 0, 0, 0, 0, time.UTC),
		Days:             385,
		TweetsCollected:  134986,
		TotalCollected:   975021,
		Users:            71947,
		AvgTweetsPerDay:  350,
		AvgTweetsPerUser: 1.88,
		OrgansPerTweet:   1.03,
		OrgansPerUser:    1.13,
		GeoTagRate:       0.014,
	}
	out := TableIText(s)
	for _, want := range []string{"134986", "975021", "71947", "385", "1.88", "1.03", "1.13", "Apr 22 2015", "May 11 2016"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableIText missing %q:\n%s", want, out)
		}
	}
}

func TestUsersPerOrganTextOrdersByPopularity(t *testing.T) {
	var counts [organ.Count]int
	counts[organ.Heart.Index()] = 1000
	counts[organ.Kidney.Index()] = 500
	counts[organ.Intestine.Index()] = 3
	out := UsersPerOrganText(counts)
	hi := strings.Index(out, "heart")
	ki := strings.Index(out, "kidney")
	ii := strings.Index(out, "intestine")
	if !(hi < ki && ki < ii) {
		t.Errorf("popularity order wrong:\n%s", out)
	}
	// Log-scale bars: 1000 vs 3 must not be ~333x longer.
	lines := strings.Split(out, "\n")
	var heartBar, intBar int
	for _, l := range lines {
		if strings.Contains(l, "heart") {
			heartBar = strings.Count(l, "#")
		}
		if strings.Contains(l, "intestine") {
			intBar = strings.Count(l, "#")
		}
	}
	if heartBar == 0 || intBar == 0 {
		t.Fatalf("missing bars:\n%s", out)
	}
	if heartBar > intBar*10 {
		t.Errorf("bars look linear, not log: %d vs %d", heartBar, intBar)
	}
}

func TestMultiOrganText(t *testing.T) {
	var tweets, users [organ.Count]int
	tweets[0], users[0] = 1000, 600
	tweets[1], users[1] = 20, 80
	out := MultiOrganText(tweets, users)
	if !strings.Contains(out, "1000") || !strings.Contains(out, "600") {
		t.Errorf("counts missing:\n%s", out)
	}
}

// buildSmallCharacterization characterizes 30 users, alternately in KS
// and TX, each with two mentions of one organ and one of the next.
func buildSmallCharacterization(t *testing.T) (*core.OrganCharacterization, *core.RegionCharacterization) {
	t.Helper()
	organs := core.NewGroupSums(organ.Count)
	regions := core.NewGroupSums(len(geo.StateCodes()))
	for i := 1; i <= 30; i++ {
		row := make([]float64, organ.Count)
		row[i%organ.Count] = 2.0 / 3
		row[(i+1)%organ.Count] = 1.0 / 3
		state := "TX"
		if i%2 == 0 {
			state = "KS"
		}
		if organs.Fold(i%organ.Count, row, 1) != nil || regions.Fold(geo.StateIndex(state), row, 1) != nil {
			t.Fatal("fold refused a row")
		}
	}
	oc, err := organs.Organs()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := regions.Regions()
	if err != nil {
		t.Fatal(err)
	}
	return oc, rc
}

func TestOrganCharacterizationText(t *testing.T) {
	oc, _ := buildSmallCharacterization(t)
	out := OrganCharacterizationText(oc)
	for _, name := range organ.Names() {
		if !strings.Contains(out, "["+name+"]") {
			t.Errorf("missing organ %s:\n%s", name, out)
		}
	}
}

func TestRegionCharacterizationText(t *testing.T) {
	_, rc := buildSmallCharacterization(t)
	out := RegionCharacterizationText(rc)
	if !strings.Contains(out, "KS") || !strings.Contains(out, "TX") {
		t.Errorf("states missing:\n%s", out)
	}
	if strings.Contains(out, "WY") {
		t.Errorf("empty state rendered:\n%s", out)
	}
}

func TestHighlightText(t *testing.T) {
	c := core.NewStateOrganCells()
	ks, tx := geo.StateIndex("KS"), geo.StateIndex("TX")
	kidney, heart := uint8(1)<<organ.Kidney.Index(), uint8(1)<<organ.Heart.Index()
	for i := 1; i <= 40; i++ {
		switch {
		case i <= 20:
			c.AddUser(ks, kidney, 1)
		case i <= 23:
			// A few kidney mentions outside KS so the RR is defined.
			c.AddUser(tx, kidney, 1)
		default:
			c.AddUser(tx, heart, 1)
		}
	}
	h, err := c.Highlight()
	if err != nil {
		t.Fatal(err)
	}
	out := HighlightText(h)
	if !strings.Contains(out, "KS") || !strings.Contains(out, "kidney") {
		t.Errorf("KS kidney missing:\n%s", out)
	}
	if !strings.Contains(out, "RR=") {
		t.Errorf("no RR values:\n%s", out)
	}
}

func TestSimilarityHeatmapAndDendrogram(t *testing.T) {
	rows := [][]float64{
		{0.9, 0.1, 0, 0, 0, 0},
		{0.85, 0.15, 0, 0, 0, 0},
		{0.1, 0.9, 0, 0, 0, 0},
		{0.15, 0.85, 0, 0, 0, 0},
	}
	codes := []string{"AA", "BB", "CC", "DD"}
	dist, err := cluster.PairwiseMatrix(rows, cluster.Hellinger, 0)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cluster.Agglomerative(dist, cluster.AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	heat := SimilarityHeatmapText(dist, codes, dg)
	if !strings.Contains(heat, "AA") || !strings.Contains(heat, "order:") {
		t.Errorf("heatmap malformed:\n%s", heat)
	}
	// Leaf order must keep the similar pairs adjacent.
	orderLine := heat[strings.Index(heat, "order:"):]
	ai := strings.Index(orderLine, "AA")
	bi := strings.Index(orderLine, "BB")
	ci := strings.Index(orderLine, "CC")
	di := strings.Index(orderLine, "DD")
	pairTogether := func(x, y, other1, other2 int) bool {
		return (x < other1 && x < other2 && y < other1 && y < other2) ||
			(x > other1 && x > other2 && y > other1 && y > other2)
	}
	if !pairTogether(ai, bi, ci, di) {
		t.Errorf("similar states not adjacent:\n%s", heat)
	}
	dtxt := DendrogramText(dg, codes)
	if !strings.Contains(dtxt, "h=") || !strings.Contains(dtxt, "- AA") {
		t.Errorf("dendrogram malformed:\n%s", dtxt)
	}
}

func TestUserClustersText(t *testing.T) {
	rows := [][]float64{
		{1, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0},
		{0, 1, 0, 0, 0, 0}, {0, 1, 0, 0, 0, 0}, {0, 1, 0, 0, 0, 0},
	}
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.KMeans(m, cluster.KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := UserClustersText(res, len(rows))
	if !strings.Contains(out, "cluster") || !strings.Contains(out, "%") {
		t.Errorf("clusters text malformed:\n%s", out)
	}
	// Largest cluster (kidney, 60%) must print before the smaller one.
	if strings.Index(out, "60.0%") > strings.Index(out, "40.0%") {
		t.Errorf("clusters not size-ordered:\n%s", out)
	}
}

func TestSweepText(t *testing.T) {
	out := SweepText([]cluster.SweepResult{
		{K: 6, Silhouette: 0.8, Inertia: 120, AvgSize: 100, MinSize: 4},
		{K: 12, Silhouette: 0.95, Inertia: 60, AvgSize: 50, MinSize: 2},
	})
	if !strings.Contains(out, "12") || !strings.Contains(out, "0.95") {
		t.Errorf("sweep text malformed:\n%s", out)
	}
}

func TestSpearmanText(t *testing.T) {
	out := SpearmanText(stats.SpearmanResult{R: 0.829, P: 0.042, N: 6})
	if !strings.Contains(out, "0.829") || !strings.Contains(out, "0.042") {
		t.Errorf("spearman text malformed: %s", out)
	}
}

func TestLogBarEdgeCases(t *testing.T) {
	if logBar(0, 100, 40) != "" {
		t.Error("zero count should render empty bar")
	}
	if logBar(5, 0, 40) != "" {
		t.Error("zero max should render empty bar")
	}
	if got := logBar(1, 1000000, 40); len(got) < 1 || len(got) > 3 {
		t.Errorf("tiny count bar = %q, want 1-3 chars", got)
	}
}

func TestRegionHistogramsText(t *testing.T) {
	_, rc := buildSmallCharacterization(t)
	out := RegionHistogramsText(rc)
	if !strings.Contains(out, "KS") || !strings.Contains(out, "▇") {
		t.Errorf("histogram view malformed:\n%s", out)
	}
	// Empty states do not render.
	if strings.Contains(out, "WY") {
		t.Errorf("empty state rendered:\n%s", out)
	}
}
