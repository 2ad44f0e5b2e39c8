package faults

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	specs, err := Parse("journal.fsync=count:1,err:eio; replicate.stream=prob:0.5,partial;engine.search=delay:10ms,after:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	if s := specs[0]; s.Site != "journal.fsync" || s.Count != 1 || s.Err != "eio" {
		t.Errorf("spec 0 = %+v", s)
	}
	if s := specs[1]; s.Site != "replicate.stream" || s.Prob != 0.5 || !s.Partial {
		t.Errorf("spec 1 = %+v", s)
	}
	if s := specs[2]; s.Site != "engine.search" || s.Delay != 10*time.Millisecond || s.After != 2 || !s.DelayOnly() {
		t.Errorf("spec 2 = %+v", s)
	}
	if specs, err := Parse(""); err != nil || len(specs) != 0 {
		t.Errorf("empty spec: %v, %v", specs, err)
	}
	for _, bad := range []string{"nosite", "x=prob:2", "x=count:-1", "x=delay:zzz", "x=bogus:1", "x=err:", "x=prob:NaN"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// FuzzParseFaultSpec asserts Parse's contract on arbitrary spec strings:
// every spec it accepts names a site and carries a probability in [0,1] and
// non-negative count, after and delay — the values fire assumes.
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"journal.fsync=count:1,err:eio",
		"replicate.stream=count:1,partial;journal.append=prob:0.1,err:enospc",
		"engine.search=delay:50ms",
		"a=prob:NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := Parse(s)
		if err != nil {
			return
		}
		for _, sp := range specs {
			if sp.Site == "" || !(sp.Prob >= 0 && sp.Prob <= 1) || sp.Count < 0 || sp.After < 0 || sp.Delay < 0 {
				t.Fatalf("Parse(%q) accepted %+v", s, sp)
			}
		}
	})
}

func TestCheckDisarmedIsNil(t *testing.T) {
	Disable()
	if err := Check("anything"); err != nil {
		t.Fatalf("disarmed Check = %v", err)
	}
}

func TestCountAndAfter(t *testing.T) {
	defer Disable()
	Enable(1, Spec{Site: "s", After: 2, Count: 3, Err: "enospc"})
	var fails int
	for i := 0; i < 10; i++ {
		if err := Check("s"); err != nil {
			if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("wrong error: %v", err)
			}
			if i < 2 {
				t.Fatalf("fired during the after window at reach %d", i)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("fired %d times, want 3", fails)
	}
	st := Stats()
	if len(st) != 1 || st[0].Reaches != 10 || st[0].Fired != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProbDeterministic(t *testing.T) {
	defer Disable()
	run := func(seed int64) []bool {
		Enable(seed, Spec{Site: "p", Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check("p") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at reach %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical firing sequences")
	}
}

func TestWrapPartialWrite(t *testing.T) {
	defer Disable()
	Enable(1, Spec{Site: "w", Count: 1, Partial: true, Err: "eio"})
	var buf bytes.Buffer
	w := Wrap("w", &buf)
	payload := bytes.Repeat([]byte("x"), 100)
	n, err := w.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if n != 50 || buf.Len() != 50 {
		t.Fatalf("torn write let %d bytes through, want 50", buf.Len())
	}
	// A failed writer stays failed: later writes must not land after the tear.
	if _, err := w.Write(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-failure write succeeded: %v", err)
	}
	if buf.Len() != 50 {
		t.Fatalf("bytes landed after the failure: %d", buf.Len())
	}
}

func TestWrapDisarmedPassthrough(t *testing.T) {
	Disable()
	var buf bytes.Buffer
	if w := Wrap("w", &buf); w != io.Writer(&buf) {
		t.Fatal("disarmed Wrap should return the writer unchanged")
	}
}

func TestTransportErrorAndSeveredBody(t *testing.T) {
	defer Disable()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("y"), 1<<14))
	}))
	defer srv.Close()

	Enable(1, Spec{Site: "t", Count: 1, Err: "reset"})
	hc := &http.Client{Transport: Transport("t", nil)}
	if _, err := hc.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "fault injected") {
		t.Fatalf("want injected transport error, got %v", err)
	}
	// Disarmed reach passes through.
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	Enable(1, Spec{Site: "t", Count: 1, Partial: true})
	resp, err = hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want severed body, got %v", err)
	}
}

func TestSetupEnvRoundTrip(t *testing.T) {
	defer Disable()
	if err := Setup("x=count:1", 3); err != nil {
		t.Fatal(err)
	}
	if err := Check("x"); err == nil {
		t.Fatal("armed site did not fire")
	}
	if err := Setup("", 0); err != nil {
		t.Fatal(err)
	}
	if err := Check("x"); err != nil {
		t.Fatalf("Setup(\"\") should disable: %v", err)
	}
}
