package pcomb

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// internal/baselines holds the competitors of the paper's figures (PTMs,
// queues, stacks, volatile combining). Nothing that ships may depend on them:
// only the figure harness and the trace tool import them.
func TestBaselinesFenced(t *testing.T) {
	const fenced = "pcomb/internal/baselines"
	allowed := map[string]bool{
		filepath.Join("internal", "harness"): true,
		filepath.Join("cmd", "pcomb-trace"):  true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		dir := filepath.Dir(path)
		if allowed[dir] || strings.HasPrefix(dir, filepath.Join("internal", "baselines")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == fenced || strings.HasPrefix(p, fenced+"/") {
				t.Errorf("%s imports %s; only internal/harness and cmd/pcomb-trace may", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
