package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := []byte("4242 (odd (name) x) S 1 4242 4242 0 -1 4194560 1200 0 3 0 157 42 0 0 20 0 9 0 5000 1000000 300 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 157+42 {
		t.Fatalf("utime+stime = %d, want %d", got, 157+42)
	}
	for _, bad := range []string{"no command field", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\ttraderd\nVmPeak:\t  812340 kB\nVmHWM:\t   43560 kB\nVmRSS:\t   41000 kB\nThreads:\t9\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 43560 {
		t.Fatalf("VmHWM = %d, %v; want 43560", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("a missing key must be an error")
	}
	if _, err := parseStatusKB(status, "Threads"); err == nil {
		t.Fatal("a value without kB must be an error")
	}
}

func TestReadProcSelf(t *testing.T) {
	st, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if st.hwmKB <= 0 {
		t.Fatalf("own VmHWM = %d kB", st.hwmKB)
	}
}

func TestParseMetrics(t *testing.T) {
	body := []byte("# HELP x help\n# TYPE x counter\ncosm_trader_import_cache_total{outcome=\"hit\"} 7\ncosm_trader_import_cache_total{outcome=\"miss\"} 3\ncosm_server_request_seconds_sum{op=\"Import\"} 0.5\n")
	s, err := parseMetrics(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("cosm_trader_import_cache_total"); got != 10 {
		t.Fatalf("family sum = %v, want 10", got)
	}
	if got := s.sum(`cosm_trader_import_cache_total{outcome="hit"}`); got != 7 {
		t.Fatalf("hit = %v, want 7", got)
	}
	if got := s.sum("cosm_server_request_seconds_sum"); got != 0.5 {
		t.Fatalf("handler seconds = %v, want 0.5", got)
	}
	if _, err := parseMetrics([]byte("novalue\n")); err == nil {
		t.Fatal("a line without a value must be an error")
	}
}
