package main

import (
	"bytes"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestHelperProcess re-enters main() when the test binary is re-execed
// by runCLI; it is not a test on its own.
func TestHelperProcess(t *testing.T) {
	args := os.Getenv("MOSBENCH_ARGS")
	if args == "" {
		t.Skip("helper process for runCLI")
	}
	os.Args = append([]string{"mosbench"}, strings.Split(args, "\x1f")...)
	main()
	os.Exit(0)
}

// runCLI runs the mosbench CLI with the given args by re-execing the
// test binary through TestHelperProcess, returning exit code and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(), "MOSBENCH_ARGS="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running CLI %v: %v", args, err)
	}
	return code, stderr.String()
}

// TestBadSpecsAreUsageErrors: a malformed -arrival/-link/-shed (or
// -fault/-placement) spec, or an invalid -shards/-shard-index pair, is a
// usage error — exit 2, before anything runs, with a message that names
// the flag and lists the valid forms.
func TestBadSpecsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the stderr message must carry
	}{
		{
			name: "arrival process",
			args: []string{"-experiment", "latload", "-arrival", "uniform"},
			want: []string{"-arrival", "poisson", "pareto"},
		},
		{
			name: "arrival alpha",
			args: []string{"-experiment", "latload", "-arrival", "pareto:alpha=0.5"},
			want: []string{"-arrival", "alpha"},
		},
		{
			name: "link key",
			args: []string{"-experiment", "latload", "-link", "mtu=9000"},
			want: []string{"-link", "rtt", "loss", "bw"},
		},
		{
			name: "link jitter exceeds rtt",
			args: []string{"-experiment", "latload", "-link", "rtt=1ms±2ms"},
			want: []string{"-link", "jitter"},
		},
		{
			name: "link missing unit",
			args: []string{"-experiment", "latload", "-link", "rtt=20"},
			want: []string{"-link", "20ms"},
		},
		{
			name: "shed form",
			args: []string{"-experiment", "latload", "-shed", "tail-drop"},
			want: []string{"-shed", "fifo", "qlen=N", "delay=100us"},
		},
		{
			name: "shed qlen",
			args: []string{"-experiment", "latload", "-shed", "qlen=0"},
			want: []string{"-shed", "positive"},
		},
		{
			name: "placement home beyond machine",
			args: []string{"-experiment", "fig1", "-machine", "ring16", "-placement", "home:16"},
			want: []string{"0..15", "home:N"},
		},
		{
			name: "fault NaN probability",
			args: []string{"-experiment", "fig5", "-quick", "-fault", "drop:NaN"},
			want: []string{"-fault", "probability"},
		},
		{
			name: "no shards",
			args: []string{"-experiment", "fig5", "-shards", "0"},
			want: []string{"-shards", "at least 1"},
		},
		{
			name: "shard index beyond shards",
			args: []string{"-experiment", "fig5", "-shards", "2", "-shard-index", "2"},
			want: []string{"-shard-index", "0..1"},
		},
		{
			name: "negative shard index",
			args: []string{"-experiment", "fig5", "-shard-index", "-2"},
			want: []string{"-shard-index", "negative"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			code, msg := runCLI(t, c.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2 (usage error); stderr: %s", code, msg)
			}
			for _, w := range c.want {
				if !strings.Contains(msg, w) {
					t.Errorf("stderr does not mention %q; got: %s", w, msg)
				}
			}
		})
	}
}

// TestGoodSpecsPassValidation: well-formed specs clear flag validation
// and the canonical forms accepted by the docs parse.
func TestGoodSpecsPassValidation(t *testing.T) {
	// Expect exit 0: a real (tiny) run with every spec flag exercised.
	code, msg := runCLI(t,
		"-experiment", "latload", "-quick", "-serial",
		"-arrival", "pareto:alpha=1.5",
		"-link", "rtt=100us+-50,loss=0.1%",
		"-shed", "qlen=8")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, msg)
	}
	// -placement home:N is checked against the -machine profile's chips,
	// not the default host's eight.
	code, msg = runCLI(t, "-experiment", "fig1", "-machine", "ring16", "-placement", "home:12")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (ring16 has 16 chips); stderr: %s", code, msg)
	}
}

// TestParseCores: -cores yields ascending, duplicate-free counts whatever
// the input order, so a repeated or reversed list sweeps (and caches)
// each point once and emits CSV rows in the order the table shows.
func TestParseCores(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"1,8,48", []int{1, 8, 48}},
		{"8,8", []int{8}},
		{"1..8,4..12", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{"48,1", []int{1, 48}},
		{" 4 , 2..3 ", []int{2, 3, 4}},
	} {
		got, err := parseCores(tc.in, 48)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCores(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "0", "49", "8..4", "1,,2", "x", "1..", "-1"} {
		if got, err := parseCores(bad, 48); err == nil {
			t.Errorf("parseCores(%q) = %v, want an error", bad, got)
		}
	}
}

// FuzzParseCores: -cores is input from outside the program. Parsing never
// panics, and any accepted list is strictly ascending within [1,max].
func FuzzParseCores(f *testing.F) {
	for _, s := range []string{"1,8,48", "1..48", "8,8", "48,1", "1..8,4..12", "0", "8..4", " 2 "} {
		f.Add(s, uint8(48))
	}
	f.Fuzz(func(t *testing.T, s string, max uint8) {
		got, err := parseCores(s, int(max))
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("parseCores(%q, %d) accepted an empty list", s, max)
		}
		for i, n := range got {
			if n < 1 || n > int(max) || i > 0 && n <= got[i-1] {
				t.Fatalf("parseCores(%q, %d) = %v: not strictly ascending within [1,%d]", s, max, got, max)
			}
		}
	})
}
