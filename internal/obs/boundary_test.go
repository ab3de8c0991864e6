package obs

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// obsImporters are the only packages allowed to import obs: the
// instances that own a histogram (the admission controller's wait
// histogram, dispatchd's HTTP timing and its scrape-time registry).
// Every other /v1/metrics series — the stage histograms included — is
// read from its owner at scrape time, so a new importer is a new
// process-global counter creeping back in.
var obsImporters = map[string]bool{
	"internal/admission": true,
	"cmd/dispatchd":      true,
}

func TestOnlyHistogramOwnersImportObs(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p == "stabledispatch/internal/obs" && !obsImporters[pkg] {
				t.Errorf("%s imports internal/obs; only %v may", path, obsImporters)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
