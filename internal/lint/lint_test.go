package lint

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixture loads one seeded fixture tree (the named directory and any
// subpackages) from testdata/src.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, errs := Load([]string{filepath.Join("testdata", "src", name) + "/..."})
	for _, e := range errs {
		t.Errorf("loading fixture %s: %v", name, e)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages loaded", name)
	}
	return pkgs
}

func findingLines(fs []Finding) []int {
	lines := make([]int, len(fs))
	for i, f := range fs {
		lines[i] = f.Line
	}
	return lines
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGoldenFixtures checks each analyzer against its seeded fixture: every
// planted violation is caught at the expected line, every suppressed or
// clean construct stays silent.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		analyzer string
		fixture  string
		want     []int // finding lines, sorted
	}{
		{"floateq", "floateq", []int{5, 9, 31}},
		{"nopanic", "nopanic", []int{8}},
		{"errdrop", "errdrop", []int{15, 16, 17, 18}},
		{"looprange", "looprange", []int{7, 12}},
		{"rawlog", "rawlog", []int{12, 13, 14}},
		{"maporder", "maporder", []int{16, 22, 29, 36}},
		{"wallclock", "wallclock", []int{22, 26, 30}},
		// randsource loads two packages: the engine-shaped subfixture
		// (engine/engine.go, sorted first) then randsource.go itself.
		{"randsource", "randsource", []int{15, 28, 11, 15, 19}},
		{"atomicguard", "atomicguard", []int{21, 25}},
		{"ctxloop", "ctxloop", []int{8, 22}},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			a := ByName(tc.analyzer)
			if a == nil {
				t.Fatalf("unknown analyzer %q", tc.analyzer)
			}
			pkgs := loadFixture(t, tc.fixture)
			got := Run(pkgs, []*Analyzer{a})
			if !equalInts(findingLines(got), tc.want) {
				t.Errorf("finding lines = %v, want %v\nfindings:\n%s",
					findingLines(got), tc.want, renderFindings(got))
			}
			for _, f := range got {
				if f.Analyzer != tc.analyzer {
					t.Errorf("finding attributed to %q, want %q", f.Analyzer, tc.analyzer)
				}
				if f.Message == "" || f.Col == 0 {
					t.Errorf("finding missing message or column: %+v", f)
				}
			}
		})
	}
}

// TestSuiteSilentOnCleanFixture runs every analyzer over the clean fixture.
func TestSuiteSilentOnCleanFixture(t *testing.T) {
	pkgs := loadFixture(t, "clean")
	if got := Run(pkgs, All()); len(got) != 0 {
		t.Errorf("clean fixture produced findings:\n%s", renderFindings(got))
	}
}

// TestFactsCrossPackage pins the two fact sources the maporder fixture
// depends on: the derived emit fact (EmitRow's body prints) and the
// explicit //lint:fact emit directive (Record's body does not trip a
// built-in recognizer).
func TestFactsCrossPackage(t *testing.T) {
	pkgs := loadFixture(t, "maporder")
	facts := GatherFacts(pkgs)
	const lib = "nocdeploy/internal/lint/testdata/src/maporder/emitlib"
	for _, fn := range []string{lib + ".EmitRow", lib + ".Record"} {
		if !facts.Has(fn, FactEmit) {
			t.Errorf("fact base missing emit fact for %s; have %v", fn, facts.Funcs(FactEmit))
		}
	}
	if facts.Has(lib+".Pure", FactEmit) {
		t.Errorf("%s.Pure wrongly carries the emit fact", lib)
	}
}

// TestAuditFixture checks the suppression-hygiene sweep: a reasonless
// directive, a stale one and an unknown analyzer name are each reported;
// a live, reasoned directive is not.
func TestAuditFixture(t *testing.T) {
	pkgs := loadFixture(t, "audit")
	got := Audit(pkgs, All())
	if want := []int{8, 12, 17}; !equalInts(findingLines(got), want) {
		t.Fatalf("audit lines = %v, want %v\nfindings:\n%s", findingLines(got), want, renderFindings(got))
	}
	for i, substr := range []string{"has no reason", "stale //lint:allow nopanic", `unknown analyzer "nosuchcheck"`} {
		if got[i].Analyzer != AuditName {
			t.Errorf("finding %d attributed to %q, want %q", i, got[i].Analyzer, AuditName)
		}
		if !strings.Contains(got[i].Message, substr) {
			t.Errorf("audit finding %d = %q, want substring %q", i, got[i].Message, substr)
		}
	}
}

// TestReasonlessAllowDoesNotSuppress pins the mandatory-reason contract: a
// directive without a reason leaves the finding live.
func TestReasonlessAllowDoesNotSuppress(t *testing.T) {
	pkgs := loadFixture(t, "audit")
	got := Run(pkgs, []*Analyzer{FloatEq})
	if want := []int{8}; !equalInts(findingLines(got), want) {
		t.Errorf("floateq lines = %v, want %v (reasonless allow on line 8 must not suppress, "+
			"reasoned allow on line 22 must)", findingLines(got), want)
	}
}

// TestRunParallelDeterministic pins the engine's own determinism contract:
// findings are byte-identical at any worker count.
func TestRunParallelDeterministic(t *testing.T) {
	pkgs := loadFixture(t, "maporder")
	pkgs = append(pkgs, loadFixture(t, "randsource")...)
	serial := RunParallel(pkgs, All(), 1)
	for _, workers := range []int{2, 4, 8} {
		if got := RunParallel(pkgs, All(), workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d findings differ from serial run:\n%s\nvs\n%s",
				workers, renderFindings(got), renderFindings(serial))
		}
	}
}

// TestLoadTolerant pins the degraded-run contract: a package that fails to
// type-check comes back as a LoadError naming it, and the healthy sibling
// packages still load and analyze.
func TestLoadTolerant(t *testing.T) {
	pkgs, errs := Load([]string{
		filepath.Join("testdata", "src", "broken"),
		filepath.Join("testdata", "src", "rawlog"),
	})
	if len(errs) != 1 {
		t.Fatalf("got %d load errors, want 1: %v", len(errs), errs)
	}
	if want := "nocdeploy/internal/lint/testdata/src/broken"; errs[0].PkgPath != want {
		t.Errorf("LoadError.PkgPath = %q, want %q", errs[0].PkgPath, want)
	}
	if len(pkgs) != 1 || filepath.Base(pkgs[0].Dir) != "rawlog" {
		t.Fatalf("healthy sibling did not load: %v", pkgs)
	}
	if got := Run(pkgs, []*Analyzer{RawLog}); len(got) == 0 {
		t.Error("healthy package produced no findings despite seeded violations")
	}
}

// TestRepoLintsClean is the integration check behind `go run ./cmd/noclint
// ./...` exiting 0: the repository's own tree must stay free of findings.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, errs := Load([]string{filepath.Join("..", "..") + "/..."})
	for _, e := range errs {
		t.Errorf("loading repository: %v", e)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	if got := Run(pkgs, All()); len(got) != 0 {
		t.Errorf("repository is not lint-clean:\n%s", renderFindings(got))
	}
	if got := Audit(pkgs, All()); len(got) != 0 {
		t.Errorf("suppression audit is not clean:\n%s", renderFindings(got))
	}
}

// TestFindingJSONShape pins the machine-readable output format.
func TestFindingJSONShape(t *testing.T) {
	f := Finding{Analyzer: "floateq", File: "x.go", Line: 3, Col: 7, Message: "m"}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"analyzer"`, `"file"`, `"line"`, `"col"`, `"message"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON %s missing key %s", b, key)
		}
	}
	if got, want := f.String(), "x.go:3:7: floateq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestSARIFRoundTrip pins the SARIF 2.1.0 output: required top-level
// fields, one rule per analyzer (plus allowaudit), stable marshaling, and
// a lossless findings round-trip.
func TestSARIFRoundTrip(t *testing.T) {
	findings := []Finding{
		{Analyzer: "maporder", File: "internal/core/report.go", Line: 12, Col: 3, Message: "m1"},
		{Analyzer: "wallclock", File: "internal/lp/simplex.go", Line: 40, Col: 9, Message: "m2"},
	}
	log := ToSARIF(findings, All())
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Fatalf("log version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "noclint" {
		t.Fatalf("unexpected runs shape: %+v", log.Runs)
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(All())+1; got != want {
		t.Errorf("declared %d rules, want %d (suite + allowaudit)", got, want)
	}
	for i, r := range log.Runs[0].Tool.Driver.Rules {
		if i > 0 && log.Runs[0].Tool.Driver.Rules[i-1].ID >= r.ID {
			t.Errorf("rules not sorted at %d: %q >= %q", i, log.Runs[0].Tool.Driver.Rules[i-1].ID, r.ID)
		}
	}

	data, err := MarshalSARIF(log)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := MarshalSARIF(ToSARIF(findings, All()))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("SARIF marshaling is not byte-stable across identical runs")
	}

	var decoded SarifLog
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("emitted SARIF does not parse back: %v", err)
	}
	if got := FindingsFromSARIF(&decoded); !reflect.DeepEqual(got, findings) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, findings)
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
