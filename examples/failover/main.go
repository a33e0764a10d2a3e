// Failover: the paper's Section-1 criticism of multicast trees, measured.
// Crash a slice of the servers mid-game and compare how each update
// machinery copes: unicast push is immune (the provider reaches every live
// server directly), an unrepaired multicast tree strands whole subtrees,
// tree repair re-attaches the orphans, and cluster flooding routes around
// the dead. DNS-routed users keep being served either way.
package main

import (
	"fmt"
	"log"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/workload"
)

func main() {
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "live", Duration: 20 * time.Minute, MeanGap: 20 * time.Second},
		},
		SizeKB: 1,
	}
	base := []core.Option{
		core.WithServers(120),
		core.WithUsersPerServer(2),
		core.WithClusters(12),
		core.WithGame(game),
		core.WithSeed(13),
		core.WithDNSRouting(30 * time.Second),
	}

	crashes := core.WithFaults(fault.Spec{RandomCrashes: &fault.RandomCrashes{Count: 15}})

	type scenario struct {
		name string
		sys  core.System
		opts []core.Option
	}
	scenarios := []scenario{
		{"push/unicast", core.SystemPush, []core.Option{crashes}},
		{"push/multicast (no repair)",
			core.System{Name: "PushMulti", Method: consistency.MethodPush, Infra: consistency.InfraMulticast},
			[]core.Option{crashes}},
		{"push/multicast (repair)",
			core.System{Name: "PushMulti", Method: consistency.MethodPush, Infra: consistency.InfraMulticast},
			[]core.Option{crashes, core.WithTreeRepair()}},
		{"push/broadcast",
			core.System{Name: "PushBcast", Method: consistency.MethodPush, Infra: consistency.InfraBroadcast},
			[]core.Option{crashes}},
	}

	fmt.Println("scenario                      failed  live  at_final  converged")
	for _, sc := range scenarios {
		res, err := core.Run(sc.sys, append(append([]core.Option(nil), base...), sc.opts...)...)
		if err != nil {
			log.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Printf("%-28s  %6d  %4d  %8d  %8.0f%%\n",
			sc.name, res.FailedServers, res.LiveServers,
			res.LiveServersAtFinalVersion, 100*convergedFrac(res))
	}
	fmt.Println()
	fmt.Println("The unrepaired tree strands every server below a dead relay — the paper's")
	fmt.Println("argument that multicast needs structure maintenance; repair closes the gap.")
}

func convergedFrac(r *cdn.Result) float64 {
	if r.LiveServers == 0 {
		return 0
	}
	return float64(r.LiveServersAtFinalVersion) / float64(r.LiveServers)
}
