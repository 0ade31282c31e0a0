// Command rups-spectrum dumps raw spectrogram data from the simulated GSM
// field — the data behind Fig 1 — as CSV for plotting: one row per metre of
// road, one column per channel, RSSI in dBm.
//
// Usage:
//
//	rups-spectrum [-seed 42] [-env 1] [-length 150] [-entries 2] [-out spectrum.csv]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"rups/internal/geo"
	"rups/internal/gsm"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 42, "field seed")
		env     = flag.Int("env", 1, "environment: 0=suburban 1=urban 2=downtown 3=under-elevated")
		length  = flag.Int("length", 150, "road length in metres")
		entries = flag.Int("entries", 2, "times the road is entered (30 min apart)")
		out     = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	if *env < 0 || *env > 3 {
		fmt.Fprintln(os.Stderr, "rups-spectrum: -env must be 0..3")
		os.Exit(2)
	}
	zone := gsm.ConstZone(gsm.EnvClass(*env))
	area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 4000, MaxY: 4000}
	field := gsm.NewField(*seed, gsm.GenerateTowers(*seed, area, zone), zone)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rups-spectrum:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	header := []string{"entry", "metre"}
	for ch := 0; ch < gsm.NumChannels; ch++ {
		header = append(header, fmt.Sprintf("arfcn%d", gsm.ChannelARFCN(ch)))
	}
	if err := cw.Write(header); err != nil {
		fatal(err)
	}

	origin := geo.Vec2{X: 800, Y: 2000}
	dir := geo.HeadingVec(math.Pi / 2)
	read := field.Reader()
	for e := 0; e < *entries; e++ {
		t0 := float64(e) * 1800
		for m := 0; m < *length; m++ {
			pos := origin.Add(dir.Scale(float64(m)))
			row := []string{strconv.Itoa(e), strconv.Itoa(m)}
			for ch := 0; ch < gsm.NumChannels; ch++ {
				row = append(row,
					strconv.FormatFloat(read(pos, ch, t0+float64(m)/8), 'f', 1, 64))
			}
			if err := cw.Write(row); err != nil {
				fatal(err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d entries × %d metres × %d channels\n",
		*entries, *length, gsm.NumChannels)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rups-spectrum:", err)
	os.Exit(1)
}
