// Command datagen writes a generated benchmark analog to a file, in the
// text exchange format that seacli -load and sea.LoadGraph read, in the
// packed snapshot format that seaserve boots from with zero recomputation,
// or both.
//
// Usage:
//
//	datagen -dataset facebook -scale 0.5 -out facebook.txt
//	datagen -dataset facebook -scale 0.5 -pack facebook.snap
//	datagen -dataset github -out github.txt -pack github.snap
package main

import (
	"flag"
	"fmt"
	"os"

	sealib "repro"
)

func main() {
	var (
		dsName = flag.String("dataset", "facebook", "dataset analog name")
		scale  = flag.Float64("scale", 1.0, "scale factor")
		out    = flag.String("out", "", "text-format output path (default <dataset>.txt when -pack is unset)")
		pack   = flag.String("pack", "", "also pack a snapshot (graph + precomputed indexes) to this path")
		truth  = flag.Bool("truth", false, "also print the planted communities to stderr")
	)
	flag.Parse()
	if *out == "" && *pack == "" {
		*out = *dsName + ".txt"
	}
	d, err := sealib.GenerateDataset(*dsName, *scale)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := sealib.WriteGraph(f, d.Graph); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s: %d nodes, %d edges, %d planted communities\n",
			*out, d.Graph.NumNodes(), d.Graph.NumEdges(), len(d.Communities))
	}
	if *pack != "" {
		size, err := sealib.PackSnapshotFileOpts(d.Graph, *pack, sealib.PackOptions{})
		if err != nil {
			fail(err)
		}
		fmt.Printf("packed %s: %d nodes, %d edges, %d bytes\n",
			*pack, d.Graph.NumNodes(), d.Graph.NumEdges(), size)
	}
	if *truth {
		for i, members := range d.Communities {
			fmt.Fprintf(os.Stderr, "community %d: %v\n", i, members)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
