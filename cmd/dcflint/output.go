package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dcfguard/internal/lint"
)

// render serializes the findings in the requested format. Positions are
// rendered relative to the working directory in every format, so output
// is stable across checkouts.
func render(format string, diags []lint.Diagnostic) ([]byte, error) {
	switch format {
	case "text":
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", relpath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		return []byte(b.String()), nil

	case "json":
		out := make([]lint.Diagnostic, 0, len(diags))
		out = append(out, diags...)
		for i := range out {
			out[i].Pos.Filename = relpath(out[i].Pos.Filename)
		}
		b, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil

	case "sarif":
		return renderSARIF(diags)
	}
	return nil, fmt.Errorf("unknown -format %q (want text, json, or sarif)", format)
}

// Minimal SARIF 2.1.0 — the subset GitHub code scanning ingests: one
// run, one rule per analyzer, one result per finding.
type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func renderSARIF(diags []lint.Diagnostic) ([]byte, error) {
	ruleSet := make(map[string]bool)
	var rules []sarifRule
	for _, a := range lint.All() {
		ruleSet[a.Name] = true
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		if !ruleSet[d.Analyzer] {
			// The "detlint" pseudo-analyzer (malformed directives).
			ruleSet[d.Analyzer] = true
			rules = append(rules, sarifRule{ID: d.Analyzer, ShortDescription: sarifMessage{Text: "detlint directive hygiene"}})
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relpath(d.Pos.Filename)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "dcflint", Rules: rules}}, Results: results}},
	}
	b, err := json.MarshalIndent(log, "", "\t")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// relpath renders a position filename relative to the working
// directory when it lies below it, so reports are stable across
// checkouts.
func relpath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || rel == "" || rel[0] == '.' && len(rel) > 1 && rel[1] == '.' {
		return name
	}
	return rel
}
