package carousel_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// registration matches a metric family being interned on a registry:
// every call names its family with a string literal, so the sources are
// the manifest of what can be exported.
var (
	registration  = regexp.MustCompile(`\.(Counter|Gauge|Histogram|Window|GaugeFunc)\(\s*"([a-z0-9_]+)"`)
	unnamedFamily = regexp.MustCompile(`\.(Counter|Gauge|Histogram|Window|GaugeFunc)\(\s*[^"\s)]`)
	kindOf        = map[string]string{"Counter": "counter", "Gauge": "gauge", "GaugeFunc": "gauge", "Histogram": "histogram", "Window": "window"}
)

type family struct{ kind, owner string }

// registeredFamilies scans the non-test sources under internal/ and cmd/
// for registrations, lazily interned labeled families included.
func registeredFamilies(t *testing.T) map[string]family {
	t.Helper()
	got := map[string]family{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if loc := unnamedFamily.FindIndex(src); loc != nil {
				t.Errorf("%s: a registration names its family with something other than a string literal (%q); the manifest cannot audit it", path, src[loc[0]:loc[1]])
			}
			for _, m := range registration.FindAllSubmatch(src, -1) {
				f := family{kind: kindOf[string(m[1])], owner: filepath.ToSlash(filepath.Dir(path))}
				name := string(m[2])
				if prev, ok := got[name]; ok && prev != f {
					t.Errorf("%s registered as %v and as %v", name, prev, f)
				}
				got[name] = f
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

var (
	testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	testName = regexp.MustCompile(`\bTest\w+`)
)

// definedTests lists the Test functions the repository's _test.go files
// define, so a reader column cannot name a test that is gone.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			got[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMetricManifest holds the rule "the registry exports a family only if
// something reads it" in place: the DESIGN.md §8 family table and the
// families non-test code registers must be the same set, each row naming
// its kind, its owner package and a reader, every test a reader column
// names must exist, and the rows that claim scripts/obscheck.sh as their
// reader must be exactly the families it greps.
func TestMetricManifest(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "<!-- metric-families:begin -->")
	table, _, ok2 := strings.Cut(table, "<!-- metric-families:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no metric-families table markers")
	}
	script, err := os.ReadFile("scripts/obscheck.sh")
	if err != nil {
		t.Fatal(err)
	}
	registered := registeredFamilies(t)
	tests := definedTests(t)
	listed := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		if len(cols) != 4 {
			t.Errorf("family row has %d columns, want family | kind | owner | reader: %s", len(cols), line)
			continue
		}
		for i := range cols {
			cols[i] = strings.Trim(strings.TrimSpace(cols[i]), "`")
		}
		name, reader := cols[0], cols[3]
		listed[name] = true
		reg, ok := registered[name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md lists %s, which nothing registers", name)
		case reg != family{kind: cols[1], owner: cols[2]}:
			t.Errorf("%s is listed as a %s of %s; the sources register a %s in %s", name, cols[1], cols[2], reg.kind, reg.owner)
		}
		if reader == "" {
			t.Errorf("%s has no reader: give it one or delete the family", name)
		}
		for _, test := range testName.FindAllString(reader, -1) {
			if !tests[test] {
				t.Errorf("%s: its reader column names %s, which no _test.go defines", name, test)
			}
		}
		greps := regexp.MustCompile(`\b` + name + `(_bucket|_p99)?\b`).Match(script)
		if claims := strings.Contains(reader, "obscheck"); greps != claims {
			t.Errorf("%s: scripts/obscheck.sh greps it = %v, but its reader column says %q", name, greps, reader)
		}
	}
	for name, reg := range registered {
		if !listed[name] {
			t.Errorf("%s registers %s, which has no row in the DESIGN.md §8 family table: name its reader there or delete it", reg.owner, name)
		}
	}
}
