// Command transput-bench regenerates the reproduction's experiment
// tables (DESIGN.md §4, EXPERIMENTS.md): the Figure 1–4 topologies,
// the invocation/Eject counting claims, the laziness and security
// properties, and the ablations.
//
// Usage:
//
//	transput-bench                 # run every experiment at full size
//	transput-bench -quick          # smaller workloads (CI speed)
//	transput-bench -exp e2,e3      # selected experiments
//	transput-bench -list           # list experiment ids
//	transput-bench -check          # verify the paper's counting claims — sequential AND
//	                               # sharded/windowed pipelines AND real-wire transports;
//	                               # exit 1 on violation
//	transput-bench -json           # write the BENCH_*.json suite into -json-dir:
//	                               # BENCH_kernel.json (ns/op, allocs/op, inv/datum
//	                               # for the four Figure 1/2 pipeline shapes),
//	                               # BENCH_transput.json (the parallel engine's
//	                               # shards × window scaling grid),
//	                               # BENCH_codec.json (gob vs wire codec costs and the
//	                               # fixed vs adaptive batching grid),
//	                               # BENCH_fusion.json (the stage-fusion compiler's
//	                               # fused vs unfused grid),
//	                               # BENCH_gateway.json (the ingress-gateway
//	                               # control-plane run: admission, idle footprint,
//	                               # steady-state throughput, churn) and
//	                               # BENCH_transport.json (the real-wire grid:
//	                               # netsim vs Unix-domain vs TCP loopback)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"asymstream/internal/experiments"
)

// suiteNames are the files the -json suite writes into -json-dir, in
// write order.
var suiteNames = [...]string{
	"BENCH_kernel.json",
	"BENCH_transput.json",
	"BENCH_codec.json",
	"BENCH_fusion.json",
	"BENCH_gateway.json",
	"BENCH_transport.json",
}

func main() {
	var (
		quick = flag.Bool("quick", false, "run reduced workloads")
		exp   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		items = flag.Int("items", 0, "override stream length per run")
		check = flag.Bool("check", false, "verify the paper's counting claims and exit")
		jsonl = flag.Bool("json", false, "write the machine-readable BENCH_*.json suite into -json-dir, then exit")
		jdir  = flag.String("json-dir", ".", "directory the -json suite is written into")
		jn    = flag.Int("json-n", 4, "filter count for the -json pipelines")
	)
	flag.Parse()

	dest := func(i int) string { return filepath.Join(*jdir, suiteNames[i]) }

	if *jsonl {
		if err := os.MkdirAll(*jdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		p := experiments.DefaultParams(*quick)
		if *items > 0 {
			p.Items = *items
		}
		out := dest(0)
		if err := experiments.WriteBenchJSON(out, *jn, p.Items); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (n=%d, items=%d)\n", out, *jn, p.Items)
		out = dest(1)
		if err := experiments.WriteParallelBenchJSON(out, p.Items); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (items=%d)\n", out, p.Items)
		out = dest(2)
		if err := experiments.WriteCodecBenchJSON(out, *jn, p.Items); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (n=%d, items=%d)\n", out, *jn, p.Items)
		out = dest(3)
		if err := experiments.WriteFusionBenchJSON(out, p.Items); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (items=%d)\n", out, p.Items)
		pairs, hot, gi := 100_000, 256, 2_000
		if *quick {
			pairs, hot, gi = 2_000, 16, 200
		}
		out = dest(4)
		if err := experiments.WriteGatewayBenchJSON(out, pairs, hot, gi); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (pairs=%d, hot=%d, items=%d)\n", out, pairs, hot, gi)
		rounds, ti := 2_000, p.Items
		if *quick {
			rounds = 300
		}
		out = dest(5)
		if err := experiments.WriteTransportBenchJSON(out, rounds, ti); err != nil {
			fmt.Fprintln(os.Stderr, "transput-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (rounds=%d, items=%d)\n", out, rounds, ti)
		return
	}

	if *check {
		p := experiments.DefaultParams(*quick)
		if *items > 0 {
			p.Items = *items
		}
		violations := experiments.Verify(p)
		if len(violations) == 0 {
			fmt.Println("all counting claims hold (n+1 vs 2n+2 invocations, n+2 vs 2n+3 Ejects, duality, Figure 1)")
			fmt.Println("parallel engine holds (byte-identical sink output at shards=4/window=4, inv/datum unchanged, Ejects scale to n·P+2)")
			fmt.Println("fusion compiler holds (byte-identical output, 2 Ejects / ~1 inv per datum co-located, fusion off reproduces paper counts)")
			fmt.Println("real wire holds (byte-identical digests over UDS and TCP, paper counts at batch 1, slab audit clean under abort)")
			fmt.Println("graph walk holds (read-only fan-in, write-only fan-out and Figure 4: one Eject a node, exact items at every sink, a datum an invocation an edge)")
			return
		}
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "VIOLATION:", v)
		}
		os.Exit(1)
	}

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", s.ID, s.Short)
		}
		return
	}

	p := experiments.DefaultParams(*quick)
	if *items > 0 {
		p.Items = *items
	}
	var ids []string
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if err := experiments.Run(ids, p, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "transput-bench:", err)
		os.Exit(1)
	}
}
