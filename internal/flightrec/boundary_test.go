package flightrec

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundary fails if the package imports a store it would
// copy from. A bundle reads the owning simulator's KPI ring, event tail
// and tracer through the contents it registers; importing tseries,
// dtrace or sim would let the recorder keep per-frame or per-event
// state of its own again.
func TestImportBoundary(t *testing.T) {
	forbidden := map[string]bool{
		"stabledispatch/internal/tseries": true,
		"stabledispatch/internal/dtrace":  true,
		"stabledispatch/internal/sim":     true,
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); forbidden[p] {
				t.Errorf("%s imports %s; flightrec may only write what its owner registers", fset.Position(imp.Pos()), p)
			}
		}
	}
}
