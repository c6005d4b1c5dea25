// Command eunomia-server runs EunomiaKV components as network daemons on
// the TCP fabric (internal/transport), the way the paper's prototype ran
// its standalone C++ service inside a datacenter.
//
// A process can host any role of a datacenter, so a full multi-process
// geo-replicated deployment is launched from the CLI alone:
//
//	# the classic standalone orderer: partitions stream timestamped
//	# operations and heartbeats to it, it emits the site-stable order
//	eunomia-server -role orderer -listen :7077 -partitions 8
//
//	# a two-datacenter cluster, one process per datacenter
//	eunomia-server -role dc -dc 0 -dcs 2 -listen :7100 -route dc1=hostB:7100
//	eunomia-server -role dc -dc 1 -dcs 2 -listen :7100 -route dc0=hostA:7100
//
//	# or split a datacenter by role across processes
//	eunomia-server -role partitions,eunomia -dc 0 ... -route dc0:receiver=...
//	eunomia-server -role receiver          -dc 0 ... -route dc0:partitions=...
//
//	# add a client front door: causal get/put over HTTP, with portable
//	# session tokens (X-Causal-Session) clients can carry between DCs
//	eunomia-server -role dc -dc 0 -dcs 2 -listen :7100 -frontend-addr :8080 \
//	    -route dc1=hostB:7100
//	# or as its own process beside a split datacenter
//	eunomia-server -role frontend -dc 0 -dcs 2 -frontend-addr :8080 \
//	    -route dc0:partitions=hostA:7100 -route dc0:receiver=hostR:7100
//
//	# a wide datacenter (>64 partitions) runs the §5 propagation tree:
//	# partitions stream at a fan-in pair of aggregator processes, which
//	# merge whole partition sets into one frame per flush toward Eunomia
//	eunomia-server -role partitions,receiver -dc 0 -partitions 128 -agg-fanin 2 \
//	    -route dc0:aggregator0=hostA:7200 -route dc0:aggregator1=hostB:7200 ...
//	eunomia-server -role aggregator -dc 0 -agg-fanin 2 -agg-index 0 \
//	    -route dc0:eunomia=hostC:7300 ...
//	eunomia-server -role aggregator -dc 0 -agg-fanin 2 -agg-index 1 \
//	    -route dc0:eunomia=hostC:7300 ...
//	eunomia-server -role eunomia -dc 0 -agg-fanin 2 ...
//
// The -mode flag selects which protocol the process runs, so the paper's
// whole comparison matrix deploys multi-process over the same fabric:
//
//	eunomia   the EunomiaKV deployment (default)
//	sequencer the S-Seq baseline; -role sequencer runs the number service
//	          alone in its own process (-aseq switches to A-Seq)
//	globalstab / gentlerain  the GentleRain baseline (one process per DC)
//	cure      the Cure baseline (one process per DC)
//	eventual  the eventually consistent baseline (one process per DC)
//
// Routes name where remote endpoints live: "dcK=host:port" maps a whole
// datacenter to one process, "dcK:partitions=..." / "dcK:eunomia=..." /
// "dcK:receiver=..." / "dcK:sequencer=..." map one role of it. Exact
// routes beat wildcards; reply routes are learned from connection hellos.
//
// The -demo flag drives a built-in causal workload for end-to-end smoke
// testing of a multi-process cluster: "write:N" issues N causally chained
// data/flag pairs, "watch:N" polls until every pair is visible and exits
// non-zero if a flag is ever visible without its causally preceding data
// (for -mode eventual, which promises no order, it checks visibility
// only).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/eunomia"
	"eunomia/internal/eventual"
	"eunomia/internal/fabric"
	"eunomia/internal/faults"
	"eunomia/internal/geostore"
	"eunomia/internal/globalstab"
	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/sequencer"
	"eunomia/internal/transport"
	"eunomia/internal/types"
	"eunomia/internal/wal"
	"eunomia/internal/wan"
)

// demoClient is the operation surface the demo workload drives; every
// mode's session type implements it.
type demoClient interface {
	Update(types.Key, types.Value) error
	Read(types.Key) (types.Value, error)
}

// hosted is a running protocol node behind a mode-independent surface.
type hosted struct {
	// newClient is nil when this process hosts no partitions (e.g. a
	// standalone sequencer or receiver process).
	newClient func() demoClient
	stats     func() string
	close     func()
	// wedged, optional, reports an unrecoverable release stream; the
	// process exits nonzero with a diagnostic instead of serving (or
	// reporting a clean demo verdict over) a dead stream.
	wedged func() bool
	// metrics, optional, contributes protocol-level samples to the
	// -metrics-addr endpoint.
	metrics func() []metrics.PromSample
	// frontend, optional, is the causal front door the -frontend-addr
	// HTTP server drives (mode eunomia with a frontend-bearing role).
	frontend *geostore.Frontend
	// health, optional, reports why this process should not take client
	// traffic (sticky WAL sync error, wedged release stream); the front
	// door's /healthz turns it into a 503.
	health func() error
	// causal reports whether the protocol promises causally ordered
	// visibility (everything except eventual).
	causal bool
	// causalGrace is how long the watcher lets a causally preceding key
	// trail its dependent before declaring a violation. Zero = strict
	// (eunomia and sequencer apply updates in dependency order at one
	// component). GentleRain/Cure need a round: the stabilizer installs
	// the stable cut to partitions sequentially, so within one round a
	// flag can be momentarily visible before its data — resolved by the
	// time the installation pass completes, never later.
	causalGrace time.Duration
}

func main() {
	var (
		mode       = flag.String("mode", "eunomia", "protocol: eunomia, sequencer, globalstab|gentlerain, cure, or eventual")
		role       = flag.String("role", "orderer", "orderer, dc, or a comma list of partitions,eunomia,receiver (mode sequencer: dc, sequencer, partitions)")
		dcID       = flag.Int("dc", 0, "this process's datacenter id")
		dcs        = flag.Int("dcs", 3, "number of datacenters in the deployment")
		partitions = flag.Int("partitions", 8, "partitions per datacenter")
		replicas   = flag.Int("replicas", 1, "Eunomia replicas per datacenter")
		aggFanin   = flag.Int("agg-fanin", 0, "mode eunomia: size of the datacenter's propagation-tree fan-in set; partitions stream metadata at a pair of aggregator endpoints instead of the replica set (0 = flat all-to-one; every process of the DC must agree)")
		aggIndex   = flag.String("agg-index", "", `-role aggregator: comma list of fan-in endpoint indices this process hosts (default: all of -agg-fanin; indices at or above it name extra tree levels)`)
		aggParent  = flag.String("agg-parent", "", `-role aggregator: comma list of parent endpoint names in this datacenter, e.g. "aggregator2,aggregator3" for a deeper tree (default: the Eunomia replica set)`)
		listen     = flag.String("listen", ":7077", "fabric listen address")
		advertise  = flag.String("advertise", "", "address peers dial to reach this process (default: listen address)")
		batchIvl   = flag.Duration("batch-interval", time.Millisecond, "partition→Eunomia and payload propagation period, flushed on wall-clock multiples (baseline modes: inter-DC ship batching interval)")
		stableIvl  = flag.Duration("stable-interval", time.Millisecond, "fallback stabilization and follower-announcement period θ (the leader also stabilizes on every arrival)")
		statsIvl   = flag.Duration("stats-interval", time.Second, "stats reporting period")
		aseq       = flag.Bool("aseq", false, "mode sequencer: contact the sequencer asynchronously (A-Seq)")
		demo       = flag.String("demo", "", `demo workload: "write:N" or "watch:N"`)
		dataDir    = flag.String("data-dir", "", "mode eunomia: persist node state (partition WALs, release-stream position, receiver SiteTime+queues) under this directory; a restart with the same dir rejoins instead of wedging")
		storeB     = flag.String("store", "mem", `mode eunomia: partition version-store backend: "mem" (in-memory maps) or "disk" (log-structured per-shard segment files whose live dataset may exceed memory; requires -data-dir)`)
		snapThresh = flag.Int64("snapshot-threshold", 0, "mode eunomia with -data-dir: per-store WAL size in bytes that triggers snapshot compaction (default 1 MiB)")
		bootFrom   = flag.String("bootstrap-from", "", `mode eunomia: comma list of donor datacenter ids (e.g. "1,2", in preference order) to pull partition snapshots from at startup — a rebuilding process installs a compressed snapshot from a live peer and replays only the WAL suffix past it; needs a role that includes partitions`)
		walSync    = flag.String("wal-sync", "flush", `WAL fsync policy: "flush" (per batch/ack, bounded loss window) or "group" (group commit: durable on return, fsyncs shared across concurrent appends)`)
		metricsAd  = flag.String("metrics-addr", "", "serve Prometheus-style metrics (fabric, peer windows, codec latency, node state) on this HTTP address at /metrics")
		compressN  = flag.String("compress", "off", `frame compression for connections this process dials: "off", "snappy", or "zstd"; inbound connections always follow the remote dialer's announcement, so mixed deployments interoperate`)
		wanSeed    = flag.Int64("wan-seed", 42, "seed for -wan jitter and loss draws; the same seed and topology replay identical link behaviour")
		frontAddr  = flag.String("frontend-addr", "", "mode eunomia: serve the causal HTTP front door (GET/PUT /kv/{key} with X-Causal-Session tokens) on this address; needs a role that includes frontend (dc does)")
		frontIndex = flag.Int("frontend-index", 0, "which of the datacenter's front-door fabric endpoints this process hosts; frontends are stateless and scale horizontally by index")
		frontWait  = flag.Duration("frontend-wait", 30*time.Second, "bound on a read's visibility wait (session migration, §4) before it fails with 503")
		sessMode   = flag.String("session", "vector", `mode eunomia: causal session metadata issued to clients: "vector" (one entry per DC, the default) or "scalar" (the paper's single-scalar ablation; every process of the deployment must agree)`)
	)
	var routeSpecs []string
	flag.Func("route", `endpoint route, repeatable: "dc1=host:port" or "dc1:receiver=host:port"`, func(s string) error {
		routeSpecs = append(routeSpecs, s)
		return nil
	})
	var wanSpecs []string
	flag.Func("wan", `emulated-WAN link shaping for inbound cross-datacenter frames, repeatable or ";"-joined: "dc0-dc1:40ms±5ms,0.1%,50Mbps" (delay, optional ±jitter, loss, bandwidth; pair "*" is the default link)`, func(s string) error {
		wanSpecs = append(wanSpecs, s)
		return nil
	})
	var faultSpecs []string
	flag.Func("faults", `deterministic fault schedule, repeatable or ";"-joined: "t=2s:partition dc0<-dc1; t=4s:heal; t=5s:crash partition@dc1; t=6s:fsync-err applier@dc0" (see internal/faults for the grammar); events addressed to this process's datacenter and roles fire at their offsets`, func(s string) error {
		faultSpecs = append(faultSpecs, s)
		return nil
	})
	faultsSeed := flag.Int64("faults-seed", 1, "seed for -faults per-frame fault draws; the same seed and schedule replay identical behaviour")
	flag.Parse()

	// Reject contradictory or silently-ignored flag combinations up
	// front, before any socket binds: a misconfigured process should die
	// with one line, not boot half a topology.
	if err := hlc.CheckStreams(*partitions); *mode == "eunomia" && err != nil {
		log.Fatalf("-partitions: %v", err)
	}
	if *aseq && *mode != "sequencer" {
		log.Fatalf("-aseq is supported only by -mode sequencer (got %q)", *mode)
	}
	aggRole := *mode == "eunomia" && roleHas(*role, "aggregator")
	if (flagSet("agg-index") || flagSet("agg-parent")) && !aggRole {
		log.Fatalf("-agg-index/-agg-parent apply only to -mode eunomia -role aggregator (got -mode %s -role %s)", *mode, *role)
	}
	if *aggFanin > 0 && *mode != "eunomia" {
		log.Fatalf("-agg-fanin is supported only by -mode eunomia (got %q)", *mode)
	}
	if *aggFanin > 0 && *role == "orderer" {
		log.Fatal("-agg-fanin contradicts -role orderer: the bare ordering service takes partition streams directly")
	}
	if aggRole && *aggFanin <= 0 {
		log.Fatal("-role aggregator needs -agg-fanin >= 1 (the datacenter's fan-in set size)")
	}
	if *frontAddr != "" && *mode != "eunomia" {
		log.Fatalf("-frontend-addr is supported only by -mode eunomia (got %q)", *mode)
	}
	if *frontAddr != "" && !(roleHas(*role, "dc") || roleHas(*role, "frontend")) {
		log.Fatalf("-frontend-addr needs a role that includes frontend (dc does; got -role %s)", *role)
	}
	if (flagSet("frontend-index") || flagSet("frontend-wait")) && *frontAddr == "" {
		log.Fatal("-frontend-index/-frontend-wait apply only with -frontend-addr")
	}
	if flagSet("session") && *mode != "eunomia" {
		log.Fatalf("-session is supported only by -mode eunomia (got %q)", *mode)
	}
	scalarSession := false
	switch *sessMode {
	case "vector":
	case "scalar":
		scalarSession = true
	default:
		log.Fatalf("unknown -session %q (want vector or scalar)", *sessMode)
	}
	var policy wal.SyncPolicy
	switch *walSync {
	case "flush":
		policy = wal.SyncOnFlush
	case "group":
		policy = wal.SyncGroupCommit
	default:
		log.Fatalf("unknown -wal-sync %q (want flush or group)", *walSync)
	}
	if *dataDir != "" && *mode != "eunomia" {
		log.Fatalf("-data-dir is supported only by -mode eunomia (got %q)", *mode)
	}
	switch *storeB {
	case "mem", "disk":
	default:
		log.Fatalf("unknown -store %q (want mem or disk)", *storeB)
	}
	if *storeB == "disk" && (*mode != "eunomia" || *dataDir == "") {
		log.Fatalf("-store disk requires -mode eunomia and -data-dir (got -mode %s, -data-dir %q)", *mode, *dataDir)
	}
	if flagSet("snapshot-threshold") {
		if *mode != "eunomia" || *dataDir == "" {
			log.Fatalf("-snapshot-threshold requires -mode eunomia and -data-dir (got -mode %s, -data-dir %q)", *mode, *dataDir)
		}
		if *snapThresh <= 0 {
			log.Fatalf("-snapshot-threshold must be positive bytes (got %d)", *snapThresh)
		}
	}
	bootstrapFrom, err := parseBootstrapFrom(*bootFrom, *mode, *dcID, *dcs)
	if err != nil {
		log.Fatal(err)
	}
	if *role == "orderer" && (*dataDir != "" || len(bootstrapFrom) > 0) {
		log.Fatal("-data-dir and -bootstrap-from contradict -role orderer: the bare ordering service keeps no durable state")
	}
	aggIdxs, err := parseAggIndexes(*aggIndex, *aggFanin)
	if err != nil {
		log.Fatal(err)
	}
	aggParents, err := parseAggParents(*aggParent, types.DCID(*dcID))
	if err != nil {
		log.Fatal(err)
	}

	scheme, err := compress.Parse(*compressN)
	if err != nil {
		log.Fatal(err)
	}
	if flagSet("wan-seed") && len(wanSpecs) == 0 {
		log.Fatal("-wan-seed applies only with -wan link specs")
	}
	if flagSet("faults-seed") && len(faultSpecs) == 0 {
		log.Fatal("-faults-seed applies only with a -faults schedule")
	}
	var faultSched *faults.Schedule
	var inj *faults.Injector
	if len(faultSpecs) > 0 {
		if faultSched, err = faults.ParseSchedule(faultSpecs...); err != nil {
			log.Fatal(err)
		}
		inj = faults.NewInjector(*faultsSeed)
	}
	var shaper *wan.Shaper
	if len(wanSpecs) > 0 {
		topo, err := wan.ParseTopology(wanSpecs...)
		if err != nil {
			log.Fatal(err)
		}
		shaper = wan.NewShaper(topo, *wanSeed)
	}
	// HoldDelivery: peers may dial and stream the moment the port is
	// bound, but nothing is consumed (or acknowledged) until this
	// process's roles are registered — otherwise a slow boot under load
	// silently acks-and-drops the first frames of send-once edges
	// (stable-metadata ships, payload batches).
	fab, err := transport.Listen(transport.Config{Listen: *listen, Advertise: *advertise,
		Compress: scheme, WANShaper: shaper, HoldDelivery: true, Faults: inj})
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	if err := applyRoutes(fab, routeSpecs, *mode, *partitions, *replicas, *aggFanin); err != nil {
		log.Fatal(err)
	}

	if *role == "orderer" {
		if *mode != "eunomia" {
			// The bare ordering service is Eunomia's; don't silently boot
			// it when a baseline was requested with the default role.
			log.Fatalf("-role orderer supports only -mode eunomia (got %q); baselines need -role dc", *mode)
		}
		runOrderer(fab, *dcID, *partitions, *replicas, *stableIvl, *statsIvl)
		return
	}

	var h hosted
	switch *mode {
	case "eunomia":
		var roles geostore.Roles
		if roles, err = parseRoles(*role); err != nil {
			log.Fatal(err)
		}
		if len(bootstrapFrom) > 0 && !roles.Has(geostore.RolePartitions) {
			log.Fatalf("-bootstrap-from needs a role that includes partitions (got %q)", *role)
		}
		h, err = hostEunomia(fab, geostore.NodeConfig{
			Config: geostore.Config{
				DCs:            *dcs,
				Partitions:     *partitions,
				Replicas:       *replicas,
				Aggregators:    *aggFanin,
				BatchInterval:  *batchIvl,
				StableInterval: *stableIvl,
				ScalarMeta:     scalarSession,
			},
			DC:                  types.DCID(*dcID),
			Roles:               roles,
			DataDir:             *dataDir,
			WALSync:             policy,
			AggIndexes:          aggIdxs,
			AggParents:          aggParents,
			FrontendIndex:       *frontIndex,
			FrontendWaitTimeout: *frontWait,
			Faults:              inj,
			SnapshotThreshold:   *snapThresh,
			StoreBackend:        *storeB,
			BootstrapFrom:       bootstrapFrom,
		})
	case "sequencer":
		h, err = hostSequencer(fab, *role, *dcID, *dcs, *partitions, *aseq, *batchIvl)
	case "globalstab", "gentlerain", "cure":
		h, err = hostGlobalstab(fab, *role, *mode, *dcID, *dcs, *partitions, *batchIvl, *stableIvl)
	case "eventual":
		h, err = hostEventual(fab, *role, *dcID, *dcs, *partitions, *batchIvl)
	default:
		err = fmt.Errorf("unknown -mode %q (want eunomia, sequencer, globalstab, gentlerain, cure, or eventual)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer h.close()
	fab.Ready() // every hosted endpoint is registered; serve held frames
	log.Printf("eunomia-server: mode %s, dc%d role %s on %s (%d dcs × %d partitions)",
		*mode, *dcID, *role, fab.Addr(), *dcs, *partitions)

	if faultSched != nil {
		go runFaultSchedule(faultSched, inj, types.DCID(*dcID), *role)
	}

	if *metricsAd != "" {
		if err := serveMetrics(*metricsAd, fab, h); err != nil {
			log.Fatal(err)
		}
	}
	if *frontAddr != "" {
		if h.frontend == nil {
			log.Fatal("-frontend-addr needs a hosted frontend role (mode eunomia, role dc or frontend)")
		}
		if err := serveFrontdoor(*frontAddr, h.frontend, h.health); err != nil {
			log.Fatal(err)
		}
	}
	if h.wedged != nil {
		// A wedged release stream is a dead datacenter wearing a live
		// process: exit nonzero instead of serving (or verdicting) over
		// it. Runs beside the demo paths too, so a demo cluster whose
		// stream wedges fails fast rather than timing out cleanly.
		go func() {
			ticker := time.NewTicker(250 * time.Millisecond)
			defer ticker.Stop()
			for range ticker.C {
				if h.wedged() {
					fmt.Fprintln(os.Stderr, "FATAL: release stream wedged: the partition-role process restarted without durable state (-data-dir); this datacenter needs a full restart/resync")
					os.Exit(1)
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if strings.HasPrefix(*demo, "watch:") {
		n := demoCount(*demo)
		if h.newClient == nil {
			log.Fatal("-demo watch needs a process that hosts partitions")
		}
		if err := demoWatch(h.newClient(), n, h.causal, h.causalGrace); err != nil {
			fmt.Println("demo: FAILED:", err)
			os.Exit(1)
		}
		if h.causal {
			fmt.Printf("demo: causal chain OK (%d pairs)\n", n)
		} else {
			// Don't claim an order guarantee the protocol doesn't make.
			fmt.Printf("demo: visibility OK (%d pairs)\n", n)
		}
		return
	}
	if strings.HasPrefix(*demo, "write:") {
		n, pause := demoWriteSpec(*demo)
		if h.newClient == nil {
			log.Fatal("-demo write needs a process that hosts partitions")
		}
		demoWrite(h.newClient(), n, pause)
		fmt.Printf("demo: wrote %d causal data/flag pairs\n", n)
	}

	ticker := time.NewTicker(*statsIvl)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			log.Printf("shutting down dc%d", *dcID)
			return
		case <-ticker.C:
			log.Printf("stats: %s, fabric sent=%d delivered=%d dropped=%d",
				h.stats(), fab.Sent.Load(), fab.Delivered.Load(), fab.Dropped.Load())
		}
	}
}

// parseBootstrapFrom validates -bootstrap-from: eunomia-only, numeric
// datacenter ids inside the deployment, never this process's own.
func parseBootstrapFrom(spec, mode string, dcID, dcs int) ([]types.DCID, error) {
	if spec == "" {
		return nil, nil
	}
	if mode != "eunomia" {
		return nil, fmt.Errorf("-bootstrap-from is supported only by -mode eunomia (got %q)", mode)
	}
	var donors []types.DCID
	for _, f := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || id < 0 || id >= dcs {
			return nil, fmt.Errorf("-bootstrap-from %q: want datacenter ids in [0,%d)", spec, dcs)
		}
		if id == dcID {
			return nil, fmt.Errorf("-bootstrap-from %q: dc%d cannot bootstrap from itself", spec, dcID)
		}
		donors = append(donors, types.DCID(id))
	}
	return donors, nil
}

// hostEunomia boots the EunomiaKV node for the selected roles on fab,
// durable when nc.DataDir is set (the node recovers its state and rejoins
// the release stream at its durable watermark).
func hostEunomia(fab *transport.TCP, nc geostore.NodeConfig) (hosted, error) {
	nc.Fabric = fab
	node, err := geostore.OpenNode(nc)
	if err != nil {
		return hosted{}, fmt.Errorf("recovering node state from %s: %w", nc.DataDir, err)
	}
	if nc.DataDir != "" {
		log.Printf("eunomia-server: durable state under %s (recovered %d local updates, release watermark %d)",
			nc.DataDir, node.TotalUpdates(), node.ApplierDurable())
	}
	h := hosted{close: node.Close, causal: true, wedged: node.ReleaseWedged, frontend: node.Frontend()}
	h.health = func() error {
		// Readiness, not liveness: a sticky WAL sync error means this
		// process has stopped promising durability (full disk, injected
		// fault) and a wedged release stream means remote updates can
		// never become visible here — in both cases a load balancer
		// should drain this front door while the process stays up for
		// inspection.
		if err := node.SyncErr(); err != nil {
			return err
		}
		if node.ReleaseWedged() {
			return fmt.Errorf("release stream wedged: the partition-role process restarted without durable state")
		}
		return nil
	}
	if nc.Roles.Has(geostore.RolePartitions) {
		h.newClient = func() demoClient { return node.NewClient() }
	}
	h.stats = func() string {
		remoteApplied := node.TotalRemoteApplied()
		if node.Receiver() != nil && !nc.Roles.Has(geostore.RolePartitions) {
			remoteApplied = node.Receiver().Applied.Load()
		}
		var stable string
		if node.Cluster() != nil {
			if l := node.Cluster().Leader(); l != nil {
				st := l.Stats()
				stable = fmt.Sprintf(" stable=%s ordered=%d pending=%d", st.StableTime, st.OpsShipped, st.Pending)
			}
		}
		var aggs string
		if list := node.Aggregators(); len(list) > 0 {
			var in, out int64
			buffered := 0
			for _, a := range list {
				in += a.BatchesIn.Load()
				out += a.BatchesOut.Load()
				buffered += a.Buffered()
			}
			aggs = fmt.Sprintf(" agg in=%d out=%d buffered=%d", in, out, buffered)
		}
		return fmt.Sprintf("local updates=%d, remote applied=%d,%s%s release inflight=%d",
			node.TotalUpdates(), remoteApplied, stable, aggs, node.ReleaseInflight())
	}
	h.metrics = func() []metrics.PromSample {
		samples := []metrics.PromSample{
			{Name: "eunomia_local_updates_total", Value: float64(node.TotalUpdates())},
			{Name: "eunomia_remote_applied_total", Value: float64(node.TotalRemoteApplied())},
			{Name: "eunomia_release_inflight", Value: float64(node.ReleaseInflight())},
			{Name: "eunomia_release_resent_total", Value: float64(node.ReleaseResent())},
			{Name: "eunomia_release_wedged", Value: boolGauge(node.ReleaseWedged())},
			{Name: "eunomia_applier_pending", Value: float64(node.ApplierPending())},
			{Name: "eunomia_applier_durable_seq", Value: float64(node.ApplierDurable())},
		}
		if nc.Roles.Has(geostore.RolePartitions) {
			// The version store: live dataset size, labeled by backend so a
			// disk-backed node's dataset-vs-RAM headroom is chartable, plus
			// the snapshot-shipping counters (nonzero after a bootstrap).
			samples = append(samples, metrics.PromSample{
				Name: "eunomia_store_bytes", Labels: [][2]string{{"backend", node.StoreBackend()}},
				Value: float64(node.StoreBytes()),
			})
			shipBytes, shipChunks, shipSeconds := node.BootstrapStats()
			samples = append(samples,
				metrics.PromSample{Name: "eunomia_snapshot_ship_bytes_total", Value: float64(shipBytes)},
				metrics.PromSample{Name: "eunomia_snapshot_ship_chunks_total", Value: float64(shipChunks)},
				metrics.PromSample{Name: "eunomia_snapshot_ship_seconds_total", Value: shipSeconds},
			)
		}
		if node.Receiver() != nil {
			samples = append(samples, metrics.PromSample{
				Name: "eunomia_receiver_applied_total", Value: float64(node.Receiver().Applied.Load()),
			})
		}
		if c := node.Cluster(); c != nil {
			// Nonzero rate: a stream's mark overtook a lost batch (late
			// route, suspended peer) and the stall resend is healing the
			// gap; the stream's watermark holds until it does.
			var refused int64
			for _, r := range c.Replicas() {
				refused += r.Stats().MarksRefused
			}
			samples = append(samples, metrics.PromSample{Name: "eunomia_marks_refused_total", Value: float64(refused)})
		}
		samples = append(samples, stabilizationLag(node, time.Now())...)
		// Propagation-tree fan-in: per-endpoint frame counters (the
		// BatchesIn/BatchesOut ratio is the fan-in factor the tree
		// achieves) and the merge-and-forward latency histogram, labeled
		// by tree level so multi-level deployments chart per hop.
		for _, a := range node.Aggregators() {
			lbl := [][2]string{
				{"endpoint", a.LocalAddr().Name},
				{"level", strconv.Itoa(a.Level())},
			}
			samples = append(samples,
				metrics.PromSample{Name: "eunomia_aggregator_batches_in_total", Labels: lbl, Value: float64(a.BatchesIn.Load())},
				metrics.PromSample{Name: "eunomia_aggregator_batches_out_total", Labels: lbl, Value: float64(a.BatchesOut.Load())},
				metrics.PromSample{Name: "eunomia_aggregator_buffered", Labels: lbl, Value: float64(a.Buffered())},
			)
			samples = append(samples, metrics.PromHistogram("eunomia_aggregator_flush_seconds", lbl, a.FlushLatency, nil)...)
		}
		// WAL durability: fsync latency and group-commit coalescing per
		// component (partition/applier/receiver stores). records_total /
		// commits_total is the realized batch size — 1.0 means every fsync
		// covered a single record, i.e. no coalescing.
		for _, wm := range node.WALMetrics() {
			lbl := [][2]string{{"component", wm.Component}}
			samples = append(samples,
				metrics.PromSample{Name: "eunomia_wal_group_commits_total", Labels: lbl, Value: float64(wm.M.Commits.Load())},
				metrics.PromSample{Name: "eunomia_wal_group_records_total", Labels: lbl, Value: float64(wm.M.Records.Load())},
				// Nonzero means the component's WAL took a sticky sync
				// failure and the node no longer promises durability:
				// page on it, then restart the node onto a healthy disk.
				metrics.PromSample{Name: "eunomia_wal_sync_errors_total", Labels: lbl, Value: float64(wm.M.SyncErrors.Load())},
				// Nonzero means a snapshot compaction failed — worst case a
				// truncation failure after install, which leaves the replay
				// tail growing behind the operator's back.
				metrics.PromSample{Name: "eunomia_wal_compact_errors_total", Labels: lbl, Value: float64(wm.M.CompactErrors.Load())},
			)
			samples = append(samples, metrics.PromHistogram("eunomia_wal_fsync_seconds", lbl, wm.M.Fsync, nil)...)
		}
		// Front door: client-facing op counters and latency, plus the
		// migration visibility waits — waits_total counting nonzero on a
		// frontend is the §4 guarantee doing work, timeouts are clients
		// told to retry (503).
		if fe := node.Frontend(); fe != nil {
			get := [][2]string{{"op", "get"}}
			put := [][2]string{{"op", "put"}}
			samples = append(samples,
				metrics.PromSample{Name: "eunomia_frontend_ops_total", Labels: get, Value: float64(fe.Gets.Load())},
				metrics.PromSample{Name: "eunomia_frontend_ops_total", Labels: put, Value: float64(fe.Puts.Load())},
				metrics.PromSample{Name: "eunomia_frontend_op_errors_total", Value: float64(fe.OpErrors.Load())},
				metrics.PromSample{Name: "eunomia_frontend_waits_total", Value: float64(fe.Waits.Load())},
				metrics.PromSample{Name: "eunomia_frontend_wait_timeouts_total", Value: float64(fe.WaitTimeouts.Load())},
			)
			samples = append(samples, metrics.PromHistogram("eunomia_frontend_op_seconds", get, fe.GetLat, nil)...)
			samples = append(samples, metrics.PromHistogram("eunomia_frontend_op_seconds", put, fe.PutLat, nil)...)
			samples = append(samples, metrics.PromHistogram("eunomia_frontend_wait_seconds", nil, fe.WaitLat, nil)...)
		}
		return samples
	}
	return h, nil
}

// stabilizationLag reports how far the hosted stabilization stages trail
// the wall clock: the Eunomia leader's stable time, and the receiver's
// SiteTime per origin (skew-inclusive: the origin's clock stamped it, and
// it stops advancing while the origin is idle). A stage that has seen
// nothing yet reports no series rather than the distance to the epoch.
func stabilizationLag(node *geostore.Node, now time.Time) []metrics.PromSample {
	var out []metrics.PromSample
	if c := node.Cluster(); c != nil {
		if l := c.Leader(); l != nil {
			if st := l.Stats().StableTime; st > 0 {
				out = append(out, metrics.PromSample{Name: "eunomia_stable_lag_seconds", Value: now.Sub(st.Time()).Seconds()})
			}
		}
	}
	if r := node.Receiver(); r != nil {
		for k, ts := range r.SiteTime() {
			if types.DCID(k) == node.DC() || ts == 0 {
				continue
			}
			out = append(out, metrics.PromSample{
				Name:   "eunomia_receiver_site_lag_seconds",
				Labels: [][2]string{{"origin", strconv.Itoa(k)}},
				Value:  now.Sub(ts.Time()).Seconds(),
			})
		}
	}
	return out
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// serveMetrics exposes fabric, peer-window, and protocol counters in
// Prometheus text format at /metrics. The listener binds synchronously so
// a bad address fails startup, then serves for the process lifetime.
func serveMetrics(addr string, fab *transport.TCP, h hosted) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		samples := []metrics.PromSample{
			{Name: "eunomia_fabric_sent_total", Value: float64(fab.Sent.Load())},
			{Name: "eunomia_fabric_delivered_total", Value: float64(fab.Delivered.Load())},
			{Name: "eunomia_fabric_dropped_total", Value: float64(fab.Dropped.Load())},
			{Name: "eunomia_fabric_dup_dropped_total", Value: float64(fab.DupDropped.Load())},
		}
		for _, ps := range fab.PeerStats() {
			peer := [][2]string{{"peer", ps.Peer}}
			samples = append(samples,
				metrics.PromSample{Name: "eunomia_peer_window_inflight", Labels: peer, Value: float64(ps.InFlight)},
				metrics.PromSample{Name: "eunomia_peer_sent_seq", Labels: peer, Value: float64(ps.Sent)},
				metrics.PromSample{Name: "eunomia_peer_acked_cum", Labels: peer, Value: float64(ps.AckedCum)},
				metrics.PromSample{Name: "eunomia_peer_retransmits_total", Labels: peer, Value: float64(ps.Retransmits)},
				metrics.PromSample{Name: "eunomia_peer_connected", Labels: peer, Value: boolGauge(ps.Connected)},
			)
		}
		// Serialization latency histograms: frame encode/decode cost and
		// the socket flush. Always exported, even empty, so dashboards
		// find the series; the codec label is kept for the dashboards
		// that select on it.
		enc, dec, flush := fab.CodecStats()
		codecLabel := [][2]string{{"codec", "wire"}}
		samples = append(samples, metrics.PromHistogram("eunomia_codec_encode_seconds", codecLabel, enc, nil)...)
		samples = append(samples, metrics.PromHistogram("eunomia_codec_decode_seconds", codecLabel, dec, nil)...)
		samples = append(samples, metrics.PromHistogram("eunomia_frame_flush_seconds", codecLabel, flush, nil)...)
		// Compression byte accounting: pre-compress is what the wire
		// records would have cost raw, post-compress what actually crossed
		// the sockets. On uncompressed connections the two advance in
		// lockstep, so bytes-on-wire per operation is comparable across
		// every -compress mode, and pre/post is the endpoint's achieved
		// ratio (exported as its own per-endpoint summary gauge).
		cst := fab.CompressStats()
		samples = append(samples,
			metrics.PromSample{Name: "eunomia_transport_bytes_pre_compress_total", Labels: [][2]string{{"dir", "tx"}}, Value: float64(cst.TxRaw)},
			metrics.PromSample{Name: "eunomia_transport_bytes_post_compress_total", Labels: [][2]string{{"dir", "tx"}}, Value: float64(cst.TxWire)},
			metrics.PromSample{Name: "eunomia_transport_bytes_pre_compress_total", Labels: [][2]string{{"dir", "rx"}}, Value: float64(cst.RxRaw)},
			metrics.PromSample{Name: "eunomia_transport_bytes_post_compress_total", Labels: [][2]string{{"dir", "rx"}}, Value: float64(cst.RxWire)},
		)
		ratio := 1.0
		if wire := cst.TxWire + cst.RxWire; wire > 0 {
			ratio = float64(cst.TxRaw+cst.RxRaw) / float64(wire)
		}
		samples = append(samples, metrics.PromSample{
			Name:   "eunomia_transport_compress_ratio",
			Labels: [][2]string{{"scheme", fab.Compress().String()}},
			Value:  ratio,
		})
		if h.metrics != nil {
			samples = append(samples, h.metrics()...)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = metrics.WriteProm(w, samples)
	})
	log.Printf("eunomia-server: metrics on http://%s/metrics", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("metrics server: %v", err)
		}
	}()
	return nil
}

// hostSequencer boots the S-Seq/A-Seq baseline node. -role sequencer runs
// the number service alone; dc (or partitions/receiver) hosts the
// partition group, consulting the sequencer over the fabric when remote.
func hostSequencer(fab *transport.TCP, role string, dcID, dcs, partitions int, aseq bool, shipIvl time.Duration) (hosted, error) {
	var roles sequencer.Roles
	for _, part := range strings.Split(role, ",") {
		switch strings.TrimSpace(part) {
		case "dc":
			roles |= sequencer.RoleAll
		case "sequencer":
			roles |= sequencer.RoleSequencer
		case "partitions":
			// The partition group hosts the datacenter's receiver too;
			// there is no separate receiver role in this baseline.
			roles |= sequencer.RolePartitions
		default:
			return hosted{}, fmt.Errorf("unknown role %q for -mode sequencer (want dc, sequencer, partitions)", part)
		}
	}
	mode := sequencer.SSeq
	if aseq {
		mode = sequencer.ASeq
	}
	node := sequencer.NewNode(sequencer.NodeConfig{
		StoreConfig: sequencer.StoreConfig{
			Mode:         mode,
			DCs:          dcs,
			Partitions:   partitions,
			ShipInterval: shipIvl,
		},
		DC:     types.DCID(dcID),
		Roles:  roles,
		Fabric: fab,
	})
	// A-Seq knowingly fails to capture causality (that is the point of
	// the ablation), so the demo watcher must not assert it.
	h := hosted{close: node.Close, causal: !aseq}
	if roles.Has(sequencer.RolePartitions) {
		h.newClient = func() demoClient { return node.NewClient() }
	}
	h.stats = func() string {
		if single, ok := node.Sequencer().(*sequencer.Single); ok {
			return fmt.Sprintf("remote applied=%d, issued=%d", node.Applied(), single.Issued())
		}
		return fmt.Sprintf("remote applied=%d", node.Applied())
	}
	return h, nil
}

// hostGlobalstab boots a GentleRain or Cure datacenter; these baselines
// deploy one process per datacenter.
func hostGlobalstab(fab *transport.TCP, role, mode string, dcID, dcs, partitions int, shipIvl, stableIvl time.Duration) (hosted, error) {
	if role != "dc" {
		return hosted{}, fmt.Errorf("-mode %s supports only -role dc (got %q)", mode, role)
	}
	m := globalstab.GentleRain
	if mode == "cure" {
		m = globalstab.Cure
	}
	node := globalstab.NewNode(globalstab.NodeConfig{
		Config: globalstab.Config{
			Mode:           m,
			DCs:            dcs,
			Partitions:     partitions,
			ShipInterval:   shipIvl,
			StableInterval: stableIvl,
		},
		DC:     types.DCID(dcID),
		Fabric: fab,
	})
	grace := 10 * stableIvl
	if grace < 100*time.Millisecond {
		grace = 100 * time.Millisecond
	}
	return hosted{
		newClient:   func() demoClient { return node.NewClient() },
		stats:       func() string { return fmt.Sprintf("remote applied=%d", node.Applied()) },
		close:       node.Close,
		causal:      true,
		causalGrace: grace,
	}, nil
}

// hostEventual boots the eventually consistent baseline datacenter.
func hostEventual(fab *transport.TCP, role string, dcID, dcs, partitions int, shipIvl time.Duration) (hosted, error) {
	if role != "dc" {
		return hosted{}, fmt.Errorf("-mode eventual supports only -role dc (got %q)", role)
	}
	node := eventual.NewNode(eventual.NodeConfig{
		Config: eventual.Config{DCs: dcs, Partitions: partitions, ShipInterval: shipIvl},
		DC:     types.DCID(dcID),
		Fabric: fab,
	})
	return hosted{
		newClient: func() demoClient { return node.NewClient() },
		stats:     func() string { return fmt.Sprintf("remote applied=%d", node.Applied()) },
		close:     node.Close,
		causal:    false,
	}, nil
}

// runOrderer serves a bare ordering service: the role the original daemon
// played, now over the pipelined fabric protocol.
func runOrderer(fab *transport.TCP, dc, partitions, replicas int, stableIvl, statsIvl time.Duration) {
	var shipped atomic.Int64
	cluster := eunomia.NewCluster(replicas, eunomia.Config{
		Partitions:     partitions,
		StableInterval: stableIvl,
	}, func(_ types.ReplicaID, ops []*types.Update) {
		shipped.Add(int64(len(ops)))
	})
	defer cluster.Stop()
	for r, rep := range cluster.Replicas() {
		fabric.ServeReplica(fab, fabric.EunomiaAddr(types.DCID(dc), types.ReplicaID(r)), rep)
	}
	fab.Ready()
	log.Printf("eunomia-server: ordering %d partition streams on %s (θ=%v, %d replicas)",
		partitions, fab.Addr(), stableIvl, replicas)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(statsIvl)
	defer ticker.Stop()
	var last int64
	for {
		select {
		case <-stop:
			st := cluster.Replica(0).Stats()
			log.Printf("shutting down: %d ops ordered, %d batches, stable=%v",
				st.OpsShipped, st.Batches, st.StableTime)
			return
		case <-ticker.C:
			cur := shipped.Load()
			st := cluster.Replica(0).Stats()
			log.Printf("ordered %d ops/s (total %d, pending %d, stable %v)",
				(cur-last)*int64(time.Second/statsIvl), cur, st.Pending, st.StableTime)
			last = cur
		}
	}
}

// runFaultSchedule fires each -faults event at its offset from process
// readiness. Network and fsync events arm the shared injector; crash and
// stop come back as directives this runner carries out on the process
// itself (SIGKILL leaves no time for cleanup — that is the point; SIGSTOP
// freezes until an external SIGCONT). Restart and cont are inherently
// external and are ignored here — the multi-process harness (or the
// operator) drives them.
func runFaultSchedule(sched *faults.Schedule, inj *faults.Injector, self types.DCID, role string) {
	hasRole := func(target string) bool {
		if roleHas(role, "dc") {
			return true
		}
		switch {
		case strings.HasPrefix(target, "partition"), target == "applier":
			// The applier (windowed release ingress) lives with the
			// partition group.
			return roleHas(role, "partitions")
		case strings.HasPrefix(target, "eunomia"):
			return roleHas(role, "eunomia") || role == "orderer"
		case target == "receiver":
			return roleHas(role, "receiver")
		}
		return false
	}
	start := time.Now()
	for _, e := range sched.Events {
		if wait := e.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		switch inj.Actuate(e, self, hasRole) {
		case faults.DirectiveKill:
			log.Printf("faults: t=%v: crash %s@dc%d — fail-stop now", e.At, e.Target, e.DC)
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		case faults.DirectiveStop:
			log.Printf("faults: t=%v: stop %s@dc%d — freezing until SIGCONT", e.At, e.Target, e.DC)
			_ = syscall.Kill(os.Getpid(), syscall.SIGSTOP)
		}
	}
}

// flagSet reports whether the named flag was set on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// roleHas reports whether the comma-separated role list names want.
func roleHas(role, want string) bool {
	for _, part := range strings.Split(role, ",") {
		if strings.TrimSpace(part) == want {
			return true
		}
	}
	return false
}

// parseAggIndexes parses the -agg-index comma list ("" = all). Indices
// at or above fanin are legal — they name extra tree levels that only
// explicitly-configured children (-agg-parent) stream at — but get a
// loud startup notice, because with no such child they serve nothing.
func parseAggIndexes(s string, fanin int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var idxs []int
	seen := make(map[int]bool)
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -agg-index %q (want a comma list of non-negative integers)", s)
		}
		if seen[n] {
			return nil, fmt.Errorf("bad -agg-index %q: index %d listed twice (two endpoints cannot share an address)", s, n)
		}
		seen[n] = true
		if n >= fanin {
			log.Printf("eunomia-server: note: aggregator%d is outside the partition-facing fan-in set (0..%d); it only serves children that name it via -agg-parent", n, fanin-1)
		}
		idxs = append(idxs, n)
	}
	return idxs, nil
}

// parseAggParents parses the -agg-parent comma list into endpoint
// addresses of this datacenter. Aggregator parents (a deeper tree) are
// redundant routes into one service, so the hosted nodes fold watermarks
// with max-over-paths; eunomia parents name the replica set explicitly.
// Mixing the two is a contradiction.
func parseAggParents(s string, dc types.DCID) ([]fabric.Addr, error) {
	if s == "" {
		return nil, nil
	}
	var parents []fabric.Addr
	aggParents, euParents := 0, 0
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		var rest string
		var ok bool
		if rest, ok = strings.CutPrefix(name, "aggregator"); ok {
			aggParents++
		} else if rest, ok = strings.CutPrefix(name, "eunomia"); ok {
			euParents++
		} else {
			return nil, fmt.Errorf("bad -agg-parent %q (want aggregatorN or eunomiaN names)", name)
		}
		if n, err := strconv.Atoi(rest); err != nil || n < 0 {
			return nil, fmt.Errorf("bad -agg-parent %q (want aggregatorN or eunomiaN names)", name)
		}
		parents = append(parents, fabric.Addr{DC: dc, Name: name})
	}
	if aggParents > 0 && euParents > 0 {
		return nil, fmt.Errorf("bad -agg-parent %q: aggregator and eunomia parents have different acknowledgement semantics; name one kind", s)
	}
	return parents, nil
}

func parseRoles(s string) (geostore.Roles, error) {
	var roles geostore.Roles
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "dc":
			roles |= geostore.RoleAll
		case "partitions":
			roles |= geostore.RolePartitions
		case "eunomia":
			roles |= geostore.RoleEunomia
		case "receiver":
			roles |= geostore.RoleReceiver
		case "aggregator":
			roles |= geostore.RoleAggregator
		case "frontend":
			roles |= geostore.RoleFrontend
		default:
			return 0, fmt.Errorf("unknown role %q (want dc, partitions, eunomia, receiver, aggregator, frontend, orderer)", part)
		}
	}
	return roles, nil
}

// applyRoutes expands "dcK=hp" and "dcK:role=hp" specs into fabric
// routes. The "partitions" role is mode-aware: in -mode sequencer the
// partition-group process also hosts the datacenter's receiver and the
// remote-sequencer reply endpoint, so those addresses route with it.
// "dcK:aggregators=hp" routes the whole fan-in set to one process;
// "dcK:aggregatorJ=hp" routes one endpoint (the usual multi-process
// tree, one or a few endpoints per aggregator process).
func applyRoutes(fab *transport.TCP, specs []string, mode string, partitions, replicas, aggregators int) error {
	for _, spec := range specs {
		target, hostport, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -route %q (want dcK=host:port or dcK:role=host:port)", spec)
		}
		dcPart, rolePart, hasRole := strings.Cut(target, ":")
		if !strings.HasPrefix(dcPart, "dc") {
			return fmt.Errorf("bad -route target %q (want dcK...)", target)
		}
		dcN, err := strconv.Atoi(strings.TrimPrefix(dcPart, "dc"))
		if err != nil {
			return fmt.Errorf("bad -route datacenter in %q: %v", spec, err)
		}
		dc := types.DCID(dcN)
		if !hasRole {
			fab.AddDCRoute(dc, hostport)
			continue
		}
		switch rolePart {
		case "partitions":
			for p := 0; p < partitions; p++ {
				fab.AddRoute(fabric.PartitionAddr(dc, types.PartitionID(p)), hostport)
			}
			// The windowed release stream's ordered ingress lives with the
			// partition group.
			fab.AddRoute(fabric.ApplierAddr(dc), hostport)
			if mode == "sequencer" {
				// The sequencer baseline colocates the datacenter's
				// receiver (all inter-DC shipping targets it) and the
				// remote-sequencer reply endpoint with the partitions.
				fab.AddRoute(fabric.ReceiverAddr(dc), hostport)
				fab.AddRoute(sequencer.ClientAddr(dc), hostport)
			}
		case "eunomia":
			for r := 0; r < replicas; r++ {
				fab.AddRoute(fabric.EunomiaAddr(dc, types.ReplicaID(r)), hostport)
			}
		case "receiver":
			fab.AddRoute(fabric.ReceiverAddr(dc), hostport)
		case "sequencer":
			fab.AddRoute(fabric.SequencerAddr(dc, 0), hostport)
		case "aggregators":
			if aggregators <= 0 {
				return fmt.Errorf("-route %q needs -agg-fanin >= 1", spec)
			}
			for i := 0; i < aggregators; i++ {
				fab.AddRoute(fabric.AggregatorAddr(dc, i), hostport)
			}
		case "frontend":
			// Rarely needed: nothing on the fabric initiates traffic at a
			// frontend (partition/receiver acks follow learned reply
			// routes), but the route keeps split topologies symmetric.
			fab.AddRoute(fabric.FrontendAddr(dc, 0), hostport)
		default:
			if rest, ok := strings.CutPrefix(rolePart, "aggregator"); ok {
				if i, err := strconv.Atoi(rest); err == nil && i >= 0 {
					fab.AddRoute(fabric.AggregatorAddr(dc, i), hostport)
					continue
				}
			}
			if rest, ok := strings.CutPrefix(rolePart, "frontend"); ok {
				if i, err := strconv.Atoi(rest); err == nil && i >= 0 {
					fab.AddRoute(fabric.FrontendAddr(dc, i), hostport)
					continue
				}
			}
			return fmt.Errorf("bad -route role %q in %q", rolePart, spec)
		}
	}
	return nil
}

func demoCount(s string) int {
	_, ns, _ := strings.Cut(s, ":")
	n, err := strconv.Atoi(ns)
	if err != nil || n <= 0 {
		log.Fatalf("bad -demo %q (want write:N or watch:N)", s)
	}
	return n
}

// demoWriteSpec parses "write:N" or "write:N:pauseMs" (a per-pair pause,
// used by the restart tests to keep the stream in flight long enough to
// kill a process in the middle of it).
func demoWriteSpec(s string) (int, time.Duration) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		log.Fatalf("bad -demo %q (want write:N or write:N:pauseMs)", s)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n <= 0 {
		log.Fatalf("bad -demo %q (want write:N or write:N:pauseMs)", s)
	}
	if len(parts) == 2 {
		return n, 0
	}
	ms, err := strconv.Atoi(parts[2])
	if err != nil || ms < 0 {
		log.Fatalf("bad -demo %q (want write:N or write:N:pauseMs)", s)
	}
	return n, time.Duration(ms) * time.Millisecond
}

// demoWrite issues n causally chained data/flag pairs from one session:
// each flag causally follows its data, and each pair follows the previous.
func demoWrite(c demoClient, n int, pause time.Duration) {
	for i := 0; i < n; i++ {
		must(c.Update(types.Key(fmt.Sprintf("data%d", i)), []byte(fmt.Sprintf("payload%d", i))))
		must(c.Update(types.Key(fmt.Sprintf("flag%d", i)), []byte("set")))
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// waitVisible polls until key holds want or the deadline passes.
func waitVisible(c demoClient, key types.Key, want string, deadline time.Time) error {
	for {
		v, _ := c.Read(key)
		if string(v) == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", key)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// demoWatch waits for every pair and, when the protocol promises causal
// order, verifies the invariant: a visible flag implies its data is
// visible (within grace, for protocols whose stable cut reaches
// partitions over a short installation pass).
func demoWatch(c demoClient, n int, causal bool, grace time.Duration) error {
	deadline := time.Now().Add(2 * time.Minute)
	for i := 0; i < n; i++ {
		flag := types.Key(fmt.Sprintf("flag%d", i))
		data := types.Key(fmt.Sprintf("data%d", i))
		payload := fmt.Sprintf("payload%d", i)
		if err := waitVisible(c, flag, "set", deadline); err != nil {
			return err
		}
		if causal {
			if err := waitVisible(c, data, payload, time.Now().Add(grace)); err != nil {
				return fmt.Errorf("CAUSALITY VIOLATION: %s visible without %s (%v)", flag, data, err)
			}
			continue
		}
		// Eventual consistency promises visibility, not order: wait for
		// the data too instead of asserting it arrived first.
		if err := waitVisible(c, data, payload, deadline); err != nil {
			return err
		}
	}
	return nil
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
