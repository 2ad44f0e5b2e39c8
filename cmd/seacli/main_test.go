package main

import (
	"context"
	"flag"
	"fmt"
	"testing"

	sealib "repro"
)

// parse runs the CLI flag set over args and serializes the Request the way
// main does, against a fixed query node.
func parse(t *testing.T, args ...string) (sealib.Request, error) {
	t.Helper()
	fs := flag.NewFlagSet("seacli", flag.ContinueOnError)
	f, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return f.buildRequest(7)
}

// TestFlagsSerializeIntoRequest is the CLI leg of the Request round-trip
// acceptance criterion: the flags produce exactly the Request the library
// would build by hand.
func TestFlagsSerializeIntoRequest(t *testing.T) {
	got, err := parse(t,
		"-method", "exact", "-k", "5", "-e", "0.01", "-confidence", "0.9",
		"-seed", "42", "-max-states", "12345")
	if err != nil {
		t.Fatal(err)
	}
	want := sealib.DefaultRequest(7)
	want.Method = sealib.MethodExact
	want.K = 5
	want.ErrorBound = 0.01
	want.Confidence = 0.9
	want.Seed = 42
	want.MaxStates = 12345
	if got != want {
		t.Fatalf("flags → Request:\n got %+v\nwant %+v", got, want)
	}

	got, err = parse(t, "-model", "truss", "-size", "8,20", "-method", "sea")
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != sealib.KTruss || got.SizeLo != 8 || got.SizeHi != 20 {
		t.Fatalf("truss/size flags lost: %+v", got)
	}
}

func TestMethodFlagExposesAllSearchers(t *testing.T) {
	for _, m := range sealib.Methods() {
		req, err := parse(t, "-method", m.String(), "-k", "3")
		if err != nil {
			t.Fatalf("-method %s: %v", m, err)
		}
		if req.Method != m {
			t.Fatalf("-method %s parsed as %v", m, req.Method)
		}
	}
	if _, err := parse(t, "-method", "bogus"); err == nil {
		t.Fatal("unknown -method accepted")
	}
	if _, err := parse(t, "-model", "clique"); err == nil {
		t.Fatal("unknown -model accepted")
	}
	if _, err := parse(t, "-method", "exact", "-model", "truss"); err == nil {
		t.Fatal("exact+truss mismatch accepted")
	}
	for _, size := range []string{"20,8", "8,20junk", "8,20,30", "8", "8,"} {
		if _, err := parse(t, "-size", size); err == nil {
			t.Errorf("-size %q accepted", size)
		}
	}
	if got, err := parse(t, "-size", " 8 , 20 "); err != nil || got.SizeLo != 8 || got.SizeHi != 20 {
		t.Errorf("-size with spaces: %+v, %v", got, err)
	}
}

// TestCLIRequestMatchesLibrary completes the round trip: the Request built
// from flags, executed, answers exactly what a hand-built Request answers.
func TestCLIRequestMatchesLibrary(t *testing.T) {
	d, err := sealib.GenerateDataset("facebook", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	q := d.QueryNodes(1, 4, 3)[0]

	fs := flag.NewFlagSet("seacli", flag.ContinueOnError)
	f, err := parseFlags(fs, []string{"-k", "4", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	fromFlags, err := f.buildRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	byHand := sealib.DefaultRequest(q)
	byHand.K = 4
	byHand.Seed = 9
	byHand.MaxStates = 200000 // the CLI's default state budget
	if fromFlags != byHand {
		t.Fatalf("flag Request %+v != hand Request %+v", fromFlags, byHand)
	}
	a, err := sealib.Execute(context.Background(), d.Graph, fromFlags)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sealib.Execute(context.Background(), d.Graph, byHand)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Community) != fmt.Sprint(b.Community) || a.Delta != b.Delta {
		t.Fatal("identical Requests answered differently")
	}
}
