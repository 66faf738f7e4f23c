package lint_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
)

func TestRegistry(t *testing.T) {
	want := []string{"cachekeylint", "detlint", "fprintcheck"}
	if got := lint.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, a := range lint.All() {
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run", a.Name)
		}
	}
}

func TestSelect(t *testing.T) {
	got, err := lint.Select("detlint,cachekeylint")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "detlint" || got[1].Name != "cachekeylint" {
		t.Fatalf("Select(detlint,cachekeylint) = %v", got)
	}
}

func TestSelectUnknown(t *testing.T) {
	_, err := lint.Select("detlnt")
	if err == nil {
		t.Fatal("Select(detlnt) succeeded")
	}
	// The typo shares a 3-rune prefix with detlint, which must lead the
	// candidate list.
	if msg := err.Error(); !strings.Contains(msg, `unknown analyzer "detlnt"`) ||
		!strings.Contains(msg, "candidates: detlint") {
		t.Fatalf("Select(detlnt) error = %q", msg)
	}
}

func TestSelectEmpty(t *testing.T) {
	if _, err := lint.Select(""); err == nil {
		t.Fatal("Select(\"\") succeeded")
	}
}
