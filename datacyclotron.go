// Package datacyclotron is the public API of this reproduction of
// "The Data Cyclotron Query Processing Scheme" (Goncalves & Kersten,
// EDBT 2010).
//
// The Data Cyclotron turns continuous data movement into the organizing
// principle of distributed query processing: the hot set circulates
// around a storage ring of main memories; queries settle anywhere,
// announce interest in data fragments (BATs), and pick them up as they
// flow past. Fragments carry a level of interest (LOI); owners evict
// fragments whose LOI falls below an adaptive threshold (LOIT).
//
// Two ways to use the library:
//
//   - Simulation (the paper's evaluation vehicle): build a SimCluster,
//     add fragments and queries, run the discrete-event simulation, and
//     read the recorded metrics. The experiment harnesses behind every
//     figure/table of the paper are exposed through RunExperiment.
//
//   - Live ring: build a LiveRing over real columnar data; submit SQL
//     to any node; plans are compiled, rewritten into request/pin/unpin
//     form by the DC optimizer, and executed with fragments flowing
//     through the emulated-RDMA ring.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package datacyclotron

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcclient"
	"repro/internal/dcopt"
	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/server"
)

// Re-exported types: the simulation surface.
type (
	// SimCluster is a simulated Data Cyclotron ring (see
	// internal/cluster for the full method set).
	SimCluster = cluster.Cluster
	// SimConfig configures a simulated ring.
	SimConfig = cluster.Config
	// SimMetrics holds everything a simulation records.
	SimMetrics = cluster.Metrics
	// BATSpec declares one data fragment in a simulation.
	BATSpec = cluster.BATSpec
	// QuerySpec declares one simulated query.
	QuerySpec = cluster.QuerySpec
	// Step is one pin+process step of a simulated query.
	Step = cluster.Step
	// CoreConfig tunes the per-node DC runtime (LOIT levels,
	// watermarks, loadAll period, resend timeout).
	CoreConfig = core.Config
	// NodeID identifies a ring node.
	NodeID = core.NodeID
	// BATID identifies a fragment.
	BATID = core.BATID
	// QueryID identifies a query.
	QueryID = core.QueryID
)

// Re-exported types: the live-ring surface.
type (
	// LiveRing is a running Data Cyclotron over real data.
	LiveRing = live.Ring
	// LiveNode is one live ring participant.
	LiveNode = live.Node
	// LiveConfig configures a live ring.
	LiveConfig = live.Config
	// BAT is a binary association table (a column fragment).
	BAT = bat.BAT
	// ResultSet is a tabular query result.
	ResultSet = mal.ResultSet
	// Plan is a MAL query plan.
	Plan = mal.Plan
	// Schema describes tables for the SQL front-end.
	Schema = minisql.Schema
	// MapSchema is the trivial in-memory Schema.
	MapSchema = minisql.MapSchema
	// LiveCacheStats snapshots hot-set cache and ring-wait counters of
	// a live node (LiveNode.CacheStats) or a whole ring
	// (LiveRing.CacheStats).
	LiveCacheStats = live.CacheStats
	// LiveHopStats snapshots hop-transport counters — wire messages,
	// batch fill, LOI-pacing park state — of a live node
	// (LiveNode.HopStats) or a whole ring (LiveRing.HopStats).
	LiveHopStats = live.HopStats
	// LiveMembershipStats snapshots the elastic-membership state —
	// view version, liveness counts, replica health, failovers — of a
	// live node (LiveNode.MembershipStats) or a whole ring
	// (LiveRing.MembershipStats).
	LiveMembershipStats = live.MembershipStats
	// HeartbeatConfig tunes the ring's failure detector
	// (LiveConfig.Heartbeat; consulted when LiveConfig.Replicas > 0).
	HeartbeatConfig = membership.Config
	// JoinReport describes one runtime ring growth (LiveRing.Join):
	// the admitted node, its splice-in neighbours, and how much of its
	// fragment share the rebalancing transfer actually moved.
	JoinReport = live.JoinReport
)

// Re-exported types: the network query service.
type (
	// QueryServer serves a live ring over TCP: one listener per node,
	// admission control, a plan cache, and graceful drain.
	QueryServer = server.Server
	// ServerConfig tunes the query service.
	ServerConfig = server.Config
	// ServerNodeStats snapshots one served node's counters.
	ServerNodeStats = server.NodeStats
	// QueryClient is the pooled network client for a served node.
	QueryClient = dcclient.Client
	// ClientConfig tunes a query client.
	ClientConfig = dcclient.Config
)

// Serve starts the network query service in front of a live ring: one
// TCP listener per node speaking the length-prefixed binary protocol.
func Serve(r *LiveRing, cfg ServerConfig) (*QueryServer, error) {
	return server.Serve(r, cfg)
}

// DefaultServerConfig suits loopback serving.
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// Dial connects a query client to one served node.
func Dial(addr string) (*QueryClient, error) { return dcclient.Dial(addr) }

// NewSimCluster builds a simulated ring.
func NewSimCluster(cfg SimConfig) *SimCluster { return cluster.New(cfg) }

// DefaultSimConfig mirrors the paper's base topology: 10 nodes,
// 10 Gb/s links, 350 µs delay, 200 MB BAT queues.
func DefaultSimConfig() SimConfig { return cluster.DefaultConfig() }

// DefaultCoreConfig mirrors the paper's runtime settings (LOIT levels
// 0.1/0.6/1.1 with 40 %/80 % watermarks).
func DefaultCoreConfig() CoreConfig { return core.DefaultConfig() }

// NewLiveRing builds a live ring of n nodes over the given columns
// (keyed "table.column"), partitioned round-robin.
func NewLiveRing(n int, columns map[string]*BAT, schema Schema, cfg LiveConfig) (*LiveRing, error) {
	return live.NewRing(n, columns, schema, cfg)
}

// DefaultLiveConfig suits in-process live rings.
func DefaultLiveConfig() LiveConfig { return live.DefaultConfig() }

// CompileSQL compiles a SELECT statement against schema into a MAL plan
// (sql.bind form, as MonetDB's front-end would emit it).
func CompileSQL(sql string, schema Schema) (*Plan, error) {
	return minisql.Compile(sql, schema, "sys")
}

// RewriteDC applies the Data Cyclotron optimizer (§4.1): sql.bind →
// datacyclotron.request plus pin/unpin injection.
func RewriteDC(p *Plan) (*Plan, error) {
	out, _, err := dcopt.Rewrite(p)
	return out, err
}

// Columns helpers for building live rings quickly.

// MakeInts builds an integer column fragment.
func MakeInts(name string, vals []int64) *BAT { return bat.MakeInts(name, vals) }

// MakeFloats builds a float column fragment.
func MakeFloats(name string, vals []float64) *BAT { return bat.MakeFloats(name, vals) }

// MakeStrs builds a string column fragment.
func MakeStrs(name string, vals []string) *BAT { return bat.MakeStrs(name, vals) }

// ExperimentIDs lists the reproducible figures/tables in run order.
func ExperimentIDs() []string {
	return []string{"fig1", "fig6", "fig7", "fig8", "fig9", "table4", "fig10", "fig11"}
}

// RunExperiment regenerates one of the paper's tables/figures and
// returns a printable report. scale 1.0 reproduces the paper's workload
// volume; smaller fractions shrink the firing window proportionally.
// fig6 and fig7 share a harness (one §5.1 run produces both), as do
// fig10 and fig11.
func RunExperiment(id string, scale float64, seed int64) (fmt.Stringer, error) {
	s := experiments.Scale(scale)
	switch id {
	case "fig1":
		return experiments.CPUBreakdown(), nil
	case "fig6", "fig7", "fig6a", "fig6b", "fig7a", "fig7b":
		return experiments.LimitedRingCapacity(s, seed), nil
	case "fig8", "fig8a", "fig8b":
		return experiments.SkewedWorkloads(s, seed), nil
	case "fig9", "fig9a", "fig9b":
		return experiments.GaussianWorkload(s, seed), nil
	case "table4":
		return experiments.TPCH(s, seed, 8), nil
	case "fig10", "fig11":
		return experiments.RingSizeSweep(s, seed, nil), nil
	}
	return nil, fmt.Errorf("datacyclotron: unknown experiment %q (have %v)", id, ExperimentIDs())
}
