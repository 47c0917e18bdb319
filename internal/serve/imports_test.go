package serve

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// The serving and fleet layers read the deployed folded configs from host.
// Neither may link the thesis-experiment package (bench) or the design-space
// explorer (dse), directly or through any package they import.
func TestServeAndFleetSkipBenchAndDSE(t *testing.T) {
	const module = "repro/"
	forbidden := map[string]bool{module + "internal/bench": true, module + "internal/dse": true}
	for _, top := range []string{module + "internal/serve", module + "internal/fleet"} {
		importer := map[string]string{top: ""}
		queue := []string{top}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			if forbidden[pkg] {
				chain := pkg
				for p := importer[pkg]; p != ""; p = importer[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("%s links %s: %s", top, pkg, chain)
				continue
			}
			dir := filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(pkg, module)))
			bp, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range bp.Imports {
				if _, seen := importer[imp]; !seen && strings.HasPrefix(imp, module) {
					importer[imp] = pkg
					queue = append(queue, imp)
				}
			}
		}
	}
}
