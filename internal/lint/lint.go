// Package lint implements m3rlint, the repo's static-analysis suite. Each
// analyzer enforces one invariant the runtime harnesses pin dynamically —
// stream close obligations, budget reserve/release pairing, canonical conf
// keys and counter names, cancellation polling in record loops, and raw
// comparator byte-order soundness — so violations surface on every path at
// lint time instead of only on exercised paths at test time.
//
// The suite is stdlib-only (go/parser, go/types, go/ast); the driver is
// cmd/m3rlint. A finding that is deliberate is suppressed with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diag is one raw finding from an analyzer, positioned by token.Pos.
type Diag struct {
	Pos     token.Pos
	Message string
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	Pkg   *Package
	Canon *Canon
}

// Analyzer is one named check over a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass) []Diag
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Closecheck, Reservecheck, Keycheck, Loopcancel, Rawcmp}
}

// Diagnostic is a resolved, user-facing finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

const ignorePrefix = "//lint:ignore"

// Run executes analyzers over pkgs, resolves positions, honors
// //lint:ignore directives, and returns the surviving diagnostics sorted
// by position. canon may be nil when no package needs key facts (it is
// required by keycheck; Loader.Canon builds it).
func Run(pkgs []*Package, analyzers []*Analyzer, canon *Canon) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		idx, bad := ignoreIndex(p, known)
		out = append(out, bad...)
		for _, a := range analyzers {
			for _, d := range a.Run(&Pass{Pkg: p, Canon: canon}) {
				pos := p.Fset.Position(d.Pos)
				if idx.suppressed(a.Name, pos) {
					continue
				}
				out = append(out, Diagnostic{Pos: pos, Analyzer: a.Name, Message: d.Message})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignores records which (file, line, analyzer) triples are suppressed. A
// directive covers its own line and the one below, so it works both as a
// trailing comment and on the line above the finding.
type ignores map[string]map[int]map[string]bool

func (ig ignores) add(file string, line int, analyzer string) {
	byLine := ig[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		ig[file] = byLine
	}
	for _, ln := range [2]int{line, line + 1} {
		set := byLine[ln]
		if set == nil {
			set = make(map[string]bool)
			byLine[ln] = set
		}
		set[analyzer] = true
	}
}

func (ig ignores) suppressed(analyzer string, pos token.Position) bool {
	return ig[pos.Filename][pos.Line][analyzer]
}

// ignoreIndex scans a package's comments for lint:ignore directives.
// Malformed directives — no analyzer name, an unknown analyzer, or a
// missing justification — are themselves diagnostics, so a typo'd escape
// hatch cannot silently suppress nothing.
func ignoreIndex(p *Package, known map[string]bool) (ignores, []Diagnostic) {
	idx := make(ignores)
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				switch {
				case len(fields) < 2:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: "malformed ignore directive: want //lint:ignore <analyzer> <reason>"})
				case !known[fields[0]]:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("ignore directive names unknown analyzer %q", fields[0])})
				default:
					idx.add(pos.Filename, pos.Line, fields[0])
				}
			}
		}
	}
	return idx, bad
}
