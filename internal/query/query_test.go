package query

import (
	"strings"
	"testing"
)

func TestParseCanonicalPrint(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"topk()", "topk(k=10, gamma=5, semantics=core)"},
		{"topk(k=3)", "topk(k=3, gamma=5, semantics=core)"},
		{"topk(gamma=2..4)", "topk(k=10, gamma=2..4, semantics=core)"},
		{"topk(gamma=4..4)", "topk(k=10, gamma=4, semantics=core)"},
		{"topk(semantics=truss+core)", "topk(k=10, gamma=5, semantics=core+truss)"},
		{"topk(semantics=core+core)", "topk(k=10, gamma=5, semantics=core)"},
		{
			"near(seeds=[9,1,1,4],k=2,gamma=3,semantics=noncontainment)",
			"near(seeds=[1,4,9], k=2, gamma=3, semantics=noncontainment)",
		},
		{
			`topk(k=5) | label("db*") | influence(>=1.5) | size(<10) | limit(2)`,
			`topk(k=5, gamma=5, semantics=core) | label("db*") | influence(>=1.5) | size(<10) | limit(2)`,
		},
		{
			" topk( k = 7 , gamma = 2 ) ;\nnear( seeds = [ 0 ] ) ;",
			"topk(k=7, gamma=2, semantics=core); near(seeds=[0], k=10, gamma=5, semantics=core)",
		},
		{"topk() | influence(!=0.25)", "topk(k=10, gamma=5, semantics=core) | influence(!=0.25)"},
		{"topk() | influence(>1e3)", "topk(k=10, gamma=5, semantics=core) | influence(>1000)"},
	}
	for _, tc := range cases {
		q, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := q.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// Canonical printing is a fixpoint.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("reparse of %q printed %q", q.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"topk",
		"topk(",
		"topk(k=0)",
		"topk(k=-1)",
		"topk(gamma=0)",
		"topk(gamma=5..2)",
		"topk(k=1,k=2)",
		"topk(seeds=[1])",
		"topk(semantics=banana)",
		"topk(bogus=1)",
		"near()",
		"near(seeds=[])",
		"near(seeds=[-1])",
		"near(seeds=[1],semantics=truss)",
		"topk() | bogus(1)",
		"topk() | label(unquoted)",
		`topk() | label("a`,
		`topk() | label("a\"b")`,
		"topk() | influence(5)",
		"topk() | influence(>=)",
		"topk() | size(>1.5)",
		"topk() | limit(-1)",
		"topk() garbage",
		"topk();;",
		strings.Repeat("topk();", MaxStatements+1),
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestPlanQueryExpansion(t *testing.T) {
	q, err := Parse("topk(k=3, gamma=2..3, semantics=core+truss); near(seeds=[1,2], gamma=4)")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		stmt  int
		gamma int32
		mode  string
		path  string
		key   string
	}{
		{0, 2, SemCore, PathLocal, "topk(k=3, gamma=2, semantics=core)"},
		{0, 2, SemTruss, PathTruss, "topk(k=3, gamma=2, semantics=truss)"},
		{0, 3, SemCore, PathLocal, "topk(k=3, gamma=3, semantics=core)"},
		{0, 3, SemTruss, PathTruss, "topk(k=3, gamma=3, semantics=truss)"},
		{1, 4, SemCore, PathLocal, "near(seeds=[1,2], k=10, gamma=4, semantics=core)"},
	}
	if len(nodes) != len(want) {
		t.Fatalf("got %d nodes, want %d: %+v", len(nodes), len(want), nodes)
	}
	for i, w := range want {
		n := nodes[i]
		if n.Stmt != w.stmt || n.Gamma != w.gamma || n.Mode != w.mode || n.Path != w.path || n.Key != w.key {
			t.Errorf("node %d = %+v, want %+v", i, n, w)
		}
	}
	if !nodes[0].FixedShape() || nodes[4].FixedShape() {
		t.Errorf("FixedShape misclassified: %v %v", nodes[0].FixedShape(), nodes[4].FixedShape())
	}
}

func TestPlanQuerySharedKeysAcrossStatements(t *testing.T) {
	// Statements differing only in filters expand to nodes with equal keys.
	q, err := Parse(`topk(k=5, gamma=3) | limit(1); topk(k=5, gamma=3) | influence(>=2)`)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Key != nodes[1].Key {
		t.Fatalf("want two nodes with equal keys, got %+v", nodes)
	}
}

func TestPlanTopKNodeMatchesPlannedKey(t *testing.T) {
	// A fixed-shape node built outside the planner carries the key the
	// planner gives the same search, under every semantics.
	q, err := Parse("topk(k=4, gamma=2..3, semantics=core+noncontainment+truss)")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		tn := TopKNode(n.K, n.Gamma, n.Mode)
		if tn.Key != n.Key || !tn.FixedShape() {
			t.Errorf("TopKNode(%d, %d, %s) key %q fixed=%v, planner key %q", n.K, n.Gamma, n.Mode, tn.Key, tn.FixedShape(), n.Key)
		}
	}
}

func TestPlanQueryNodeCap(t *testing.T) {
	q, err := Parse("topk(gamma=1..1000)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanQuery(q, nil); err == nil {
		t.Fatal("plan over MaxPlanNodes unexpectedly succeeded")
	}
}

func TestPlanQueryPickOverride(t *testing.T) {
	q, err := Parse("topk(semantics=core+noncontainment+truss)")
	if err != nil {
		t.Fatal(err)
	}
	pick := func(mode string, near bool) string {
		if mode == SemCore {
			return PathIndex
		}
		if mode == SemTruss {
			return PathTruss
		}
		return PathLocal
	}
	nodes, err := PlanQuery(q, pick)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{nodes[0].Path, nodes[1].Path, nodes[2].Path}
	if got[0] != PathIndex || got[1] != PathLocal || got[2] != PathTruss {
		t.Fatalf("paths = %v", got)
	}
}

func TestFilterKeep(t *testing.T) {
	cases := []struct {
		f         Filter
		influence float64
		size      int
		labels    []string
		want      bool
	}{
		{Filter{Name: FilterInfluence, Op: ">=", Num: 2}, 2, 1, nil, true},
		{Filter{Name: FilterInfluence, Op: ">", Num: 2}, 2, 1, nil, false},
		{Filter{Name: FilterInfluence, Op: "!=", Num: 2}, 3, 1, nil, true},
		{Filter{Name: FilterSize, Op: "<=", Num: 0, Int: 4}, 0, 4, nil, true},
		{Filter{Name: FilterSize, Op: "<", Int: 4}, 0, 4, nil, false},
		{Filter{Name: FilterSize, Op: "=", Int: 4}, 0, 4, nil, true},
		{Filter{Name: FilterLabel, Pattern: "db*"}, 0, 1, []string{"ml", "dbsys"}, true},
		{Filter{Name: FilterLabel, Pattern: "db*"}, 0, 1, []string{"ml"}, false},
		{Filter{Name: FilterLabel, Pattern: "*"}, 0, 1, nil, true},
		{Filter{Name: FilterLabel, Pattern: "db*"}, 0, 1, nil, false},
		{Filter{Name: FilterLabel, Pattern: "a*b*c"}, 0, 1, []string{"aXbYc"}, true},
		{Filter{Name: FilterLabel, Pattern: "a*b*c"}, 0, 1, []string{"aXcYb"}, false},
		{Filter{Name: FilterLimit, Int: 0}, 9, 9, nil, true},
	}
	for i, tc := range cases {
		if got := tc.f.Keep(tc.influence, tc.size, tc.labels); got != tc.want {
			t.Errorf("case %d (%s): Keep = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}
