package runconfig

import (
	"flag"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
)

func parse(t *testing.T, withProtocol bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, withProtocol)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// A bad value fails naming the flag (and, for a name, the valid ones)
// before the run starts, not after running at a default.
func TestRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-scale", "-3"}, []string{"-scale"}},
		{[]string{"-protocol", "tcp"}, []string{"-protocol", "rdma", "tcpip"}},
		{[]string{"-chaos-profile", "bogus"}, []string{"-chaos-profile", `"bogus"`, "link-flap"}},
	} {
		ran := false
		err := parse(t, true, tc.args...).Run(io.Discard, func(*experiments.Suite, interconnect.Spec) error {
			ran = true
			return nil
		})
		if err == nil || ran {
			t.Errorf("%v: ran %v, error %v; want an error before the run", tc.args, ran, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not name %q", tc.args, err, w)
			}
		}
	}
}

// -scale S moves the whole scale model: problem sizes × S and caches
// × S/8, from Default and from -quick alike; TimeScale and the cores
// stay the suite's.
func TestScaleSetsWholeModel(t *testing.T) {
	for _, tc := range []struct {
		args []string
		base *experiments.Suite
	}{
		{[]string{"-scale", "4"}, experiments.Default()},
		{[]string{"-quick", "-scale", "4"}, experiments.Quick()},
	} {
		var s *experiments.Suite
		err := parse(t, false, tc.args...).Run(io.Discard, func(got *experiments.Suite, _ interconnect.Spec) error {
			s = got
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.Scale != 4 || s.CacheScale != 0.5 || s.TimeScale != tc.base.TimeScale || s.XeonCores != tc.base.XeonCores {
			t.Errorf("%v: Scale %g CacheScale %g TimeScale %g XeonCores %d, want 4, 0.5, %g, %d",
				tc.args, s.Scale, s.CacheScale, s.TimeScale, s.XeonCores, tc.base.TimeScale, tc.base.XeonCores)
		}
	}
}

// A bad serving flag fails naming the flag and what is wrong with it
// before anything is built: hetserve starts no listener and hetload
// submits nothing.
func TestServeRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-chaos-profile", "bogus"}, []string{"-chaos-profile", `"bogus"`, "link-flap", "mixed"}},
		{[]string{"-weights", "gold=0"}, []string{"-weights", "gold=0", "positive"}},
		{[]string{"-nodes", "n0"}, []string{"-nodes", "n0", "name:class"}},
		{[]string{"-nodes", "n0:xeon,n0:thunderx"}, []string{"-nodes", `"n0" repeated`}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterServe(fs, 256)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := f.Server()
		if err == nil {
			t.Errorf("%v: no error", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not name %q", tc.args, err, w)
			}
		}
	}
}

// RegisterServe adds exactly ServeFlagNames, the list hetload's
// -connect check reads, with each command's own -queue-depth default.
func TestServeFlagNames(t *testing.T) {
	for _, depth := range []int{256, 0} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		RegisterServe(fs, depth)
		var names []string
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if want := slices.Sorted(slices.Values(ServeFlagNames)); !slices.Equal(names, want) {
			t.Errorf("registered %v, ServeFlagNames sorted %v", names, want)
		}
		if got := fs.Lookup("queue-depth").DefValue; got != strconv.Itoa(depth) {
			t.Errorf("-queue-depth default %s, want %d", got, depth)
		}
	}
}
