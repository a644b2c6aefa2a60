package psi

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneSnapshotOwner enforces ARCHITECTURE.md's "one layer owns
// snapshotting": the epoch manager (internal/epoch) is the double-buffer
// machinery, and only internal/collection may build on it. Every other
// layer keeps a single copy of its state and is read through a
// snapshot-mode Collection when readers must never wait behind a flush.
// The check parses the imports of every non-test Go file under internal/
// and cmd/.
func TestOneSnapshotOwner(t *testing.T) {
	const (
		epochPkg = "repro/internal/epoch"
		owner    = "internal/collection"
	)
	fset := token.NewFileSet()
	owners := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != epochPkg {
					continue
				}
				if filepath.ToSlash(filepath.Dir(path)) != owner {
					t.Errorf("%s imports %s: only %s may keep snapshot versions", path, epochPkg, owner)
				} else {
					owners++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Guard against the walk silently matching nothing (a moved tree or
	// a renamed module would otherwise pass vacuously).
	if owners == 0 {
		t.Fatalf("no file in %s imports %s; the owner check has gone stale", owner, epochPkg)
	}
}
