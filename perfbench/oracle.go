package main

import (
	"fmt"
	"strings"
)

// checkReport verifies one regenerated report against the reference
// document (the tree's EXPERIMENTS.md). Over the full suite the report's
// markdown must appear in it verbatim. When the run is restricted to some
// ciphers, rows averaged over the suite cannot match, so the check is
// per line: the report's heading and every table row of a selected
// cipher must appear in the document as whole lines.
func checkReport(id, md, doc string, ciphers []string) error {
	if len(ciphers) == 0 {
		if !strings.Contains(doc, md) {
			return fmt.Errorf("report %s does not appear verbatim in the reference document", id)
		}
		return nil
	}
	for _, line := range strings.Split(strings.TrimSuffix(md, "\n"), "\n") {
		if !strings.HasPrefix(line, "### ") && !rowOf(line, ciphers) {
			continue
		}
		if !strings.Contains(doc, "\n"+line+"\n") {
			return fmt.Errorf("report %s: line %q does not appear in the reference document", id, line)
		}
	}
	return nil
}

// rowOf reports whether a markdown table line is a row of one of the
// ciphers.
func rowOf(line string, ciphers []string) bool {
	for _, c := range ciphers {
		if strings.HasPrefix(line, "| "+c+" |") {
			return true
		}
	}
	return false
}
