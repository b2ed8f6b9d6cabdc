// Package checkers is the registry of this repo's analyzers — the single
// list both cmd/ttlint and any future driver consume.
package checkers

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/certorder"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/flushcheck"
	"repro/internal/analysis/panicsafe"
)

// All lists every analyzer in the suite, in reporting order.
var All = []*analysis.Analyzer{
	certorder.Analyzer,
	ctxflow.Analyzer,
	flushcheck.Analyzer,
	panicsafe.Analyzer,
}

// Select resolves a comma-separated analyzer list ("" = all).
func Select(names string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			var known []string
			for _, k := range All {
				known = append(known, k.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
