package main

import "testing"

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = v + 0.01*float64(i%3)
		}
		return xs
	}
	noisy := []float64{10, 12, 9, 13, 8, 11, 14, 9, 10, 12}
	cases := []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		want        string
	}{
		{"clear gain", steady(10), steady(9), true, "gain"},
		{"gain when higher is better", steady(9), steady(10), false, "gain"},
		{"within bound", steady(10), steady(10.5), true, "no change"},
		{"regression", steady(10), steady(12), true, "regression"},
		{"noisy parent", noisy, steady(12), true, "unresolved"},
		{"every run better but gap inside the parent's spread", noisy, steady(7.9), true, "better"},
		{"eight wins in ten", steady(10), []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}, true, "no change"},
	}
	for _, c := range cases {
		if v := judge(c.base, c.head, c.lowerBetter, 0.1); v.kind != c.want {
			t.Errorf("%s: %s (wins %d/%d, base %+v, head %+v), want %s", c.name, v.kind, v.wins, v.n, v.base, v.head, c.want)
		}
	}
}

func TestParsePrometheus(t *testing.T) {
	good := "# TYPE dcf_mac_tx_success_total counter\n" +
		"dcf_mac_tx_success_total{node=\"1\"} 42\n" +
		"dcf_medium_transmissions_total 7\n" +
		"dcf_monitor_diff_bucket{node=\"0\",le=\"+Inf\"} 3\n" +
		"dcf_monitor_window_sum{node=\"0\"} -1.5e+01\n"
	if n, err := parsePrometheus(good); err != nil || n != 4 {
		t.Errorf("parsePrometheus(good) = %d, %v", n, err)
	}
	for _, bad := range []string{
		"dcf_x 1 2 3\n",
		"9bad 1\n",
		"dcf_x{node=1} 1\n",
		"dcf_x{node=\"1\" 1\n",
		"dcf_x one\n",
		"dcf_x\n",
	} {
		if _, err := parsePrometheus(bad); err == nil {
			t.Errorf("parsePrometheus accepted %q", bad)
		}
	}
}
