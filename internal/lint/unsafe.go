package lint

import (
	"strconv"
	"strings"
)

// Unsafe confines package unsafe to the packages that own recycled line
// storage. The ingest path hands lines across layers as string views of
// buffers it reuses — the framer's read buffer (transport), the queue's slabs
// (pipeline), the manager's worker batches (predictor) — and each view is valid only until the call that received it
// returns. That is sound only where the code that makes the view also owns,
// releases and reuses the storage, with the lifetime written down beside the
// unsafe.String. Anywhere else a view is an alias nobody is accounting for,
// so every other non-test file in the module must copy instead.
//
// Packages are classified by the last segment of their import path, as the
// layering analyzer does, so the rule also covers test fixtures; packages
// outside the module are never checked.
var Unsafe = &Analyzer{
	Name: "unsafe",
	Doc: "allow package unsafe only in the packages that own recycled line storage " +
		"(transport, pipeline, predictor); everywhere else a line is copied, not aliased",
	Run: runUnsafe,
}

// unsafeOwners are the path segments of the packages that own recycled line
// storage and may import unsafe to hand out views of it.
var unsafeOwners = map[string]bool{
	"transport": true,
	"pipeline":  true,
	"predictor": true,
}

func runUnsafe(p *Pass) error {
	path := p.Pkg.Path()
	if p.Module == "" || !strings.HasPrefix(path, p.Module+"/") {
		return nil
	}
	if unsafeOwners[path[strings.LastIndexByte(path, '/')+1:]] {
		return nil
	}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			if name, err := strconv.Unquote(imp.Path.Value); err == nil && name == "unsafe" {
				p.Reportf(imp.Pos(), "%s must not import unsafe: only the packages that own recycled line storage (transport, pipeline, predictor) may hand out views of it; copy instead", path)
			}
		}
	}
	return nil
}
