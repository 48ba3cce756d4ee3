package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dcfguard/internal/serve"
)

// FuzzFlagsToScenario throws arbitrary command lines (space-separated)
// at the flag path: parseCLI, then scenarioSpec, then ToScenario. None
// may panic. For a spec a local run accepts, the job -submit would send
// must encode and decode on the daemon side to an equal spec, which
// the daemon's admission accepts too.
func FuzzFlagsToScenario(f *testing.F) {
	for _, tc := range flagCases {
		f.Add(strings.Join(tc.args, " "))
	}
	f.Fuzz(func(t *testing.T, argv string) {
		c, err := parseCLI(strings.Fields(argv))
		if err != nil {
			return
		}
		sp, err := c.scenarioSpec()
		if err != nil {
			return
		}
		if _, err := sp.ToScenario(); err != nil {
			return
		}
		body, err := json.Marshal(c.jobSpec(sp))
		if err != nil {
			t.Fatalf("encoding the -submit job: %v", err)
		}
		js, err := serve.DecodeJobSpec(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("daemon cannot decode the -submit job: %v\n%s", err, body)
		}
		if !reflect.DeepEqual(js.Scenario, sp) {
			t.Fatalf("-submit sends a different spec:\nlocal  %+v\nsubmit %+v", sp, js.Scenario)
		}
		if _, err := js.Scenario.ToScenario(); err != nil {
			t.Fatalf("daemon rejects a spec the local run accepts: %v", err)
		}
	})
}
