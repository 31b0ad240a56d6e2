package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetmp/internal/experiments"
)

func runQuick(stdout, stderr io.Writer, args ...string) error {
	return run(append([]string{"-quick", "-parallel", "1"}, args...), stdout, stderr)
}

// A -run name hetbench does not know, a negative -scale and an unknown
// -chaos-profile are errors that name what is wrong, returned before
// anything runs or prints.
func TestRunRejectsBadSelectionAndScale(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "fig66"}, `"fig66" (valid: fig1 fig4 tbl2 tbl3 fig6 fig7 fig8 fig9 overhead ablation)`},
		{[]string{"-run", "fig4,figg7"}, `"figg7"`},
		{[]string{"-run", "tbl2", "-scale", "-1"}, "-scale"},
		{[]string{"-run", "fig4", "-chaos-profile", "bogus"}, `"bogus"`},
	} {
		var out bytes.Buffer
		err := runQuick(&out, &out, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) || out.Len() != 0 {
			t.Errorf("%v: error %v after printing %q, want one containing %q and no output",
				tc.args, err, out.String(), tc.want)
		}
	}
}

// With -json - standard output is the JSON a -json file would hold and
// nothing else; the tables move to standard error.
func TestJSONToStdoutIsOnlyJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig4.json")
	var fileOut, dashOut, dashErr bytes.Buffer
	if err := runQuick(&fileOut, io.Discard, "-run", "fig4", "-json", path); err != nil {
		t.Fatal(err)
	}
	if err := runQuick(&dashOut, &dashErr, "-run", "fig4", "-json", "-"); err != nil {
		t.Fatal(err)
	}
	var rep experiments.Report
	if err := json.Unmarshal(dashOut.Bytes(), &rep); err != nil || len(rep.Fig4) == 0 {
		t.Fatalf("-json - wrote %q to stdout: %v, %d Figure 4 points", dashOut.String(), err, len(rep.Fig4))
	}
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(dashOut.Bytes(), file) {
		t.Errorf("-json - wrote\n%s\n-json %s wrote\n%s (%v)", dashOut.String(), path, file, err)
	}
	if tables := dashErr.String(); tables == "" || !strings.HasPrefix(fileOut.String(), tables) {
		t.Errorf("-json - wrote %q to stderr, want the tables -json <file> prints first on stdout:\n%s", tables, fileOut.String())
	}
}
