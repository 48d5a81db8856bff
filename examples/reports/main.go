// Reports: the paper's Figures 3 and 4 side by side.
//
// A three-stage pipeline whose source and first filter also emit
// monitoring Reports to a shared window.  Run first in the write-only
// discipline (Figure 3: reports are *pushed*, and the window cannot
// tell its reporters apart) and then in the read-only discipline with
// channel identifiers (Figure 4: the window *pulls* each Report
// channel and labels it).
//
// A final section shows the stage-fusion compiler: the same logical
// topology can occupy fewer physical Ejects, so the program reports
// the two counts separately throughout.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"asymstream"
	"asymstream/internal/experiments"
)

func main() {
	const items = 200

	fmt.Println("== Figure 3: write-only discipline, pushed reports ==")
	r3, err := experiments.RunFigure3(items)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data items delivered: %d\n", r3.Items)
	fmt.Printf("report lines shown:   %d (merged anonymously — push fan-in)\n", r3.ReportLines)
	fmt.Printf("physical ejects: %d (unfused: every logical stage is its own Eject), data invocations: %d\n\n",
		r3.Ejects, r3.DataInv)

	fmt.Println("== Figure 4: read-only discipline, pulled report channels ==")
	r4, err := experiments.RunFigure4(items, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data items pulled:    %d\n", r4.Items)
	fmt.Printf("report lines shown:   %d (each labelled by its input — one Report channel per reporter)\n", r4.ReportLines)
	fmt.Printf("physical ejects: %d (unfused: every logical stage is its own Eject), data invocations: %d\n\n",
		r4.Ejects, r4.DataInv)

	fmt.Println("== Figure 4 again, with unforgeable (capability) channel identifiers ==")
	r4c, err := experiments.RunFigure4(items, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data items pulled:    %d\n", r4c.Items)
	fmt.Printf("report lines shown:   %d\n", r4c.ReportLines)
	fmt.Println("only holders of a channel's UID can Read it (§5's security scheme)")

	fmt.Println("\n== Stage fusion: logical stages vs physical Ejects ==")
	sys := asymstream.NewSystem(asymstream.SystemConfig{})
	defer sys.Close()
	upper := func(ins []asymstream.ItemReader, outs []asymstream.ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(bytes.ToUpper(item)); err != nil {
				return err
			}
		}
	}
	fs := []asymstream.Filter{
		{Name: "f0", Body: upper}, {Name: "f1", Body: upper}, {Name: "f2", Body: upper},
	}
	sank := 0
	p, err := sys.Pipeline(asymstream.ReadOnly,
		asymstream.LinesSource("a\nb\nc\n"), fs,
		func(in asymstream.ItemReader) error {
			for {
				if _, err := in.Next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				sank++
			}
		},
		asymstream.Options{Fusion: asymstream.FusionOn})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("items delivered:  %d\n", sank)
	fmt.Printf("logical stages:   %d (source + 3 filters + sink)\n", p.LogicalStages)
	fmt.Printf("physical ejects:  %d (%d stages fused into %d group)\n",
		p.Ejects(), p.FusedStages, p.FusionGroups)
}
