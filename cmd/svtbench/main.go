// Command svtbench regenerates the tables and figures of "Using SMT to
// Accelerate Nested Virtualization" (ISCA'19) on the simulated testbed.
//
// Usage:
//
//	svtbench -all            regenerate everything (full-length runs)
//	svtbench -all -quick     regenerate everything with shortened runs
//	svtbench -all -parallel=4  fan independent experiment cells out to 4 workers
//	svtbench -table 1        one table (1, 3 or 4)
//	svtbench -figure 7       one figure (6–10)
//	svtbench -micro channels the §6.1 communication-channel study
//	svtbench -profile        the §6.2/§6.3 exit-reason profiles
//	svtbench -trace trace.json  write a Perfetto timeline of a representative run
//
// Every section runs on one svtsim.Session whose worker pool is
// -parallel wide. Experiment cells are independent (each owns its engine
// and RNG streams), so -parallel=N changes wall-clock time only: the
// output is byte-identical for every N.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"svtsim"
	"svtsim/internal/parallel"
)

// section is one independently renderable chunk of -all output.
type section struct {
	name string
	run  func(io.Writer) error
}

// sections assembles the selected report sections in presentation order,
// each rendered on sess.
func sections(sess *svtsim.Session, all bool, table, figure int, micro string, profile bool, n int, quick bool, root string) []section {
	var secs []section
	addErr := func(sel bool, name string, run func(io.Writer) error) {
		if sel {
			secs = append(secs, section{name: name, run: run})
		}
	}
	add := func(sel bool, name string, run func(io.Writer)) {
		addErr(sel, name, func(w io.Writer) error { run(w); return nil })
	}
	add(all || table == 1, "table1", func(w io.Writer) { sess.ReportTable1(w, n) })
	addErr(all || table == 3, "table3", func(w io.Writer) error { return sess.ReportTable3(w, root) })
	add(all || table == 4, "table4", func(w io.Writer) { sess.ReportTable4(w) })
	add(all || figure == 6, "figure6", func(w io.Writer) { sess.ReportFigure6(w, n) })
	add(all || figure == 7, "figure7", func(w io.Writer) { sess.ReportFigure7(w, quick) })
	add(all || figure == 8, "figure8", func(w io.Writer) { sess.ReportFigure8(w, quick) })
	add(all || figure == 9, "figure9", func(w io.Writer) { sess.ReportFigure9(w, quick) })
	add(all || figure == 10, "figure10", func(w io.Writer) { sess.ReportFigure10(w, quick) })
	add(all || micro == "channels", "channels", func(w io.Writer) { sess.ReportChannels(w, quick) })
	add(all || profile, "profiles", func(w io.Writer) { sess.ReportProfiles(w) })
	return secs
}

// renderAll renders every section concurrently into its own buffer on a
// pool of the given width, then writes the buffers in presentation order.
// Sections themselves fan their cells out on their session's pool, so
// small sections do not serialize behind big ones. It returns the first
// section error in presentation order, after writing the sections that
// rendered.
func renderAll(w io.Writer, workers int, secs []section) error {
	type out struct {
		buf []byte
		err error
	}
	outs := parallel.MapN(workers, len(secs), func(i int) out {
		var b bytes.Buffer
		err := secs[i].run(&b)
		return out{b.Bytes(), err}
	})
	var first error
	for _, o := range outs {
		w.Write(o.buf)
		if first == nil {
			first = o.err
		}
	}
	return first
}

func main() {
	var (
		all      = flag.Bool("all", false, "regenerate every table and figure")
		quick    = flag.Bool("quick", false, "shortened runs")
		table    = flag.Int("table", 0, "regenerate one table (1, 3, 4)")
		figure   = flag.Int("figure", 0, "regenerate one figure (6-10)")
		micro    = flag.String("micro", "", "micro study to run (channels)")
		profile  = flag.Bool("profile", false, "exit-reason profiles (6.2/6.3)")
		root     = flag.String("root", ".", "repository root (for Table 3 line counts)")
		workers  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool width for independent experiment cells (1 = serial)")
		traceOut = flag.String("trace", "", "write a Perfetto timeline of a representative SW-SVt run to this file")
	)
	flag.Parse()

	sess, err := svtsim.NewSession(svtsim.WithParallelism(*workers))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	w := os.Stdout
	n := 2000
	if *quick {
		n = 400
	}

	if *traceOut != "" {
		if err := writeTraceArtifact(*traceOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*all && *table == 0 && *figure == 0 && *micro == "" && !*profile {
			return
		}
	}

	secs := sections(sess, *all, *table, *figure, *micro, *profile, n, *quick, *root)
	if len(secs) == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; try -all, -table N, -figure N, -micro channels, -profile or -trace FILE")
		flag.Usage()
		os.Exit(2)
	}
	if err := renderAll(w, *workers, secs); err != nil {
		fmt.Fprintln(os.Stderr, "svtbench:", err)
		os.Exit(1)
	}
}

// writeTraceArtifact runs one representative experiment — SW-SVt netperf
// TCP_RR, the richest event mix (nested exits, ring traffic, IRQs,
// virtio) — with the observability plane armed, and serializes the
// timeline as Chrome trace-event JSON. The run itself is byte-identical
// to an untraced one; only the artifact is extra.
func writeTraceArtifact(path string, quick bool) error {
	n := 500
	if quick {
		n = 100
	}
	sess, err := svtsim.NewSession(svtsim.WithObs(&svtsim.ObsOptions{}))
	if err != nil {
		return err
	}
	r := sess.NetLatency(svtsim.SWSVt, n)
	plane := sess.LastObs()
	if plane == nil {
		return fmt.Errorf("svtbench: trace run captured no observability plane")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := plane.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: netperf TCP_RR (sw-svt, n=%d, mean %.1f us): %d events -> %s\n",
		n, r.MeanUs, plane.Tracer.Total(), path)
	return nil
}
