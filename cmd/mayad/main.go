// Command mayad is the fleet-defense daemon: a long-running HTTP server
// that admits defended tenants, steps them on a scheduler built from
// internal/fleet banks, and serves traces, flight records, and Prometheus
// telemetry back out.
//
// Usage:
//
//	mayad [-addr :8787] [-max-tenants n] [-queue n] [-spill n]
//	      [-spool dir] [-pace 0] [-addr-file path]
//
// -max-tenants, -queue and -spill default to 0, which takes the daemon's
// own default (mayad.Config).
//
// API (all JSON unless noted):
//
//	POST   /tenants            admit a tenant (TenantSpec body) — 201, or
//	                           503 + Retry-After when shedding load
//	GET    /tenants            list tenants
//	GET    /tenants/{id}       one tenant's status
//	DELETE /tenants/{id}       evict a tenant (200 once the eviction is
//	                           queued; a tenant that finishes first ends done)
//	GET    /tenants/{id}/trace?format=csv|json|mayt   finished trace
//	GET    /tenants/{id}/flight                       flight JSONL
//	GET    /traces.csv         all finished tenants as one fleet CSV
//	GET    /spill              drain the period readings spilled since the
//	                           last drain: {tenant, step, power_w} samples
//	                           of every tenant, finished and evicted ones
//	                           included, oldest period first
//	GET    /healthz            ok / draining
//	GET    /metrics            Prometheus telemetry (via debugsrv)
//
// Routes answer 200, 201, 400, 404, 409 or 503 with a JSON body, apart
// from trace and flight downloads; an unknown path is a 404, another
// method on a known path a 405, and a path not in clean form redirects
// (301).
//
// The spill holds the newest -spill samples over all tenants, 64 control
// periods of each of 64 tenants by default; older ones are dropped and
// counted in maya_fleet_spill_dropped_total.
//
// A tenant admitted with (seed, index) reproduces — byte for byte — slot
// `index` of `mayactl -fleet -seed <seed>` with the same machine,
// defense, workload, and duration, regardless of bank packing or which
// other tenants are resident.
//
// The scheduler steps every bank 25 control periods per pass. -pace is
// the wall time per control period: after each pass the scheduler sleeps
// 25 × pace, so a tenant advances one 20 ms period per pace of wall time,
// plus the time stepping takes.
//
// On SIGINT/SIGTERM the daemon drains: admissions shed with 503, banks
// finalize once the running pass ends, at a control-period boundary
// (every tenant's partial trace is a bit-identical prefix of its full
// run), traces spool to -spool, and the HTTP server shuts down
// gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/maya-defense/maya/internal/debugsrv"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8787", "listen address (host:port; :0 picks a free port)")
	maxTenants := flag.Int("max-tenants", 0, "resident-tenant cap; admissions beyond it shed with 503 (0 = the daemon default, 64)")
	queue := flag.Int("queue", 0, "admission queue depth; a full queue sheds with 503 (0 = the daemon default, 32)")
	spill := flag.Int("spill", 0, "samples the /spill buffer keeps over all tenants, drop-oldest past it (0 = the daemon default, 4096)")
	spool := flag.String("spool", "", "directory for tenant traces flushed at drain (empty = no spool)")
	pace := flag.Duration("pace", 0, "wall time per control period: the scheduler sleeps 25 × pace after each 25-period pass (0 = run flat out)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (for scripts using :0)")
	drainTimeout := flag.Duration("drain-timeout", debugsrv.DefaultDrainTimeout, "bound on the HTTP graceful-shutdown drain")
	flag.Parse()

	if err := run(*addr, *addrFile, *drainTimeout, mayad.Config{
		MaxTenants: *maxTenants,
		QueueDepth: *queue,
		SpillLimit: *spill,
		SpoolDir:   *spool,
		Pace:       *pace,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "mayad:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string, drainTimeout time.Duration, cfg mayad.Config) error {
	reg := telemetry.NewRegistry()
	srv := mayad.New(cfg, reg)
	srv.Start()

	// The HTTP server outlives the signal context on purpose: at
	// shutdown the scheduler drains first (status stays queryable), then
	// the server closes gracefully.
	dbg, err := debugsrv.ServeHandler(context.Background(), addr, reg, srv.Handler())
	if err != nil {
		return err
	}
	dbg.SetDrainTimeout(drainTimeout)
	fmt.Printf("mayad: listening on %s\n", dbg.Addr())
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(dbg.Addr()+"\n"), 0o644); err != nil {
			dbg.Close()
			return err
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	<-ctx.Done()

	fmt.Println("mayad: draining")
	srv.Drain()
	if err := dbg.Close(); err != nil {
		return err
	}
	fmt.Println("mayad: stopped")
	return nil
}
