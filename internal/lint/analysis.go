// Package lint is aarohi's source-invariant linter: a small, dependency-free
// re-implementation of the golang.org/x/tools/go/analysis shape (Analyzer,
// Pass, Diagnostic) plus the analyzers that encode this repository's runtime
// invariants — zero-allocation hot paths, lock hygiene around blocking
// operations, mandatory Close of project resources, and never-discarded
// durability errors.
//
// The paper's pitch is feasibility: prediction must keep up with the live log
// rate. Those are properties of the *code* (no allocation per token, no fsync
// under a mutex, no dropped WAL error), and they rot silently under ordinary
// review. internal/vet checks compiled models; this package checks the Go
// source that runs them. cmd/aarohilint is the multichecker front end, wired
// into scripts/check.sh and CI.
//
// Suppressions: a comment of the form
//
//	//aarohi:allow <analyzer> <reason>
//
// on the flagged line or the line above it silences that analyzer there. A
// reason is mandatory — the comment is the audit trail for a deliberate
// exception (e.g. the WAL's fsync-under-mutex on segment roll).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier, used on the command line, in
	// diagnostics and in //aarohi:allow suppressions.
	Name string
	// Doc is the one-paragraph description shown by aarohilint -list.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the import path of the module the package belongs to (empty
	// for packages outside any module). mustclose uses it to decide what a
	// "project" type is.
	Module string

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Preorder walks every file of the pass in depth-first order, calling fn for
// each node.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Hotpath, LockBlock, MustClose, Durable, Layering, Unsafe}
}

// Select resolves a comma-separated analyzer-name list against All. An empty
// spec selects everything.
func Select(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the analyzer names in suite order.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// Run applies the analyzers to the loaded packages and returns the surviving
// diagnostics sorted by position. Findings silenced by //aarohi:allow
// comments are dropped here, after every analyzer has run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    pkg.Module,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = applySuppressions(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// allowDirective is the suppression-comment prefix.
const allowDirective = "//aarohi:allow "

// applySuppressions drops diagnostics covered by an //aarohi:allow comment on
// the same line or the line immediately above.
func applySuppressions(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// allowed maps file -> line -> set of analyzer names allowed there.
	allowed := map[string]map[int]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, strings.TrimSpace(allowDirective))
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						// No reason given: the directive is ignored, so the
						// finding it meant to silence still surfaces.
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					m := allowed[pos.Filename]
					if m == nil {
						m = map[int]map[string]bool{}
						allowed[pos.Filename] = m
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if m[line] == nil {
							m[line] = map[string]bool{}
						}
						m[line][fields[0]] = true
					}
				}
			}
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		if m := allowed[d.Pos.Filename]; m != nil && m[d.Pos.Line][d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// --- shared type helpers ---

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// namedOrPointee unwraps pointers and returns the named type beneath, if any.
func namedOrPointee(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// calleeFunc resolves the *types.Func a call expression invokes (method or
// package function), or nil for conversions, builtins and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		if obj, ok := info.Uses[fun.Sel]; ok {
			f, _ := obj.(*types.Func)
			return f
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			f, _ := obj.(*types.Func)
			return f
		}
	}
	return nil
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// recvNamed returns the named type of f's receiver (unwrapping a pointer), or
// nil when f is not a method.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOrPointee(sig.Recv().Type())
}
