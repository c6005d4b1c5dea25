package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// promSet is one scrape of every server's /metrics: series name → one
// entry per sample, keyed by its label text.
type promSet map[string]map[string]float64

// scrape reads /metrics from every server, summing same-labelled series
// across servers.
func (d httpDoor) scrape() promSet {
	out := promSet{}
	for _, s := range d.ss {
		resp, err := d.clients[0].Get(s.metrics)
		if err != nil {
			continue
		}
		parseProm(resp.Body, out)
		resp.Body.Close()
	}
	return out
}

// parseProm adds the samples of a Prometheus text exposition to out.
func parseProm(r io.Reader, out promSet) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		out[name][labels] += v
	}
}

// sum adds every sample of name whose labels contain match.
func (p promSet) sum(name, match string) float64 {
	var s float64
	for labels, v := range p[name] {
		if strings.Contains(labels, match) {
			s += v
		}
	}
	return s
}

// delta is p1.sum − p0.sum.
func delta(p0, p1 promSet, name, match string) float64 {
	return p1.sum(name, match) - p0.sum(name, match)
}

// meanDelta is the mean of a histogram's observations between two
// scrapes, from its _sum and _count series, scaled by unit.
func meanDelta(p0, p1 promSet, hist, match string, unit float64) (float64, int) {
	n := delta(p0, p1, hist+"_count", match)
	return unit * ratio(delta(p0, p1, hist+"_sum", match), n), int(n)
}

// layerMetrics fills the traced run's per-layer metrics from the
// benchmark's own timings and /metrics deltas.
func (t *tcpRun) layerMetrics(res *result, m0, m1 promSet, ops int64) {
	L := res.layers
	fig(L, "frontend.get_service_ms_p50", &t.getSvc, 50)
	fig(L, "frontend.put_service_ms_p50", &t.putSvc, 50)
	waits := delta(m0, m1, "eunomia_frontend_waits_total", "")
	L["frontend.waits_per_kop"] = figure{ratio(waits, float64(ops)/1000), int(ops)}
	v, n := meanDelta(m0, m1, "eunomia_frontend_wait_seconds", "", 1e3)
	L["frontend.wait_ms_p50"] = figure{v, n}
	L["frontend.wait_timeouts"] = figure{delta(m0, m1, "eunomia_frontend_wait_timeouts_total", ""), int(waits)}

	// Client-observed minus server-observed time of the same calls,
	// migrate reads and their visibility waits included on both sides.
	var client float64
	all := append(append(append([]float64(nil), t.getSvc.v...), t.putSvc.v...), t.migSvc.v...)
	for _, x := range all {
		client += x
	}
	calls := len(all)
	server, sn := meanDelta(m0, m1, "eunomia_frontend_op_seconds", "", 1e3)
	L["http.overhead_ms_mean"] = figure{ratio(client, float64(calls)) - server, min(calls, sn)}

	var liveKeys float64 = tcpKeys
	for _, w := range t.writes {
		if w.kind == opMigrate {
			liveKeys++
		}
	}
	user := tcpDCs * liveKeys * float64(len(preKey(0))+tcpValue)
	L["kvstore.bytes_per_user_byte"] = figure{ratio(m1.sum("eunomia_store_bytes", ""), user), tcpDCs}

	frames := delta(m0, m1, "eunomia_fabric_sent_total", "")
	L["transport.frames_per_op"] = figure{ratio(frames, float64(ops)), int(frames)}
	tx := delta(m0, m1, "eunomia_transport_bytes_post_compress_total", `dir="tx"`)
	L["transport.bytes_per_op"] = figure{ratio(tx, float64(ops)), int(frames)}
	pre := delta(m0, m1, "eunomia_transport_bytes_pre_compress_total", "")
	post := delta(m0, m1, "eunomia_transport_bytes_post_compress_total", "")
	L["compress.ratio"] = figure{ratio(pre, post), int(frames)}
	v, n = meanDelta(m0, m1, "eunomia_codec_encode_seconds", `codec="wire"`, 1e6)
	L["wire.encode_us_mean"] = figure{v, n}
	v, n = meanDelta(m0, m1, "eunomia_frame_flush_seconds", `codec="wire"`, 1e6)
	L["transport.flush_us_mean"] = figure{v, n}
	L["transport.retransmits"] = figure{delta(m0, m1, "eunomia_peer_retransmits_total", ""), int(frames)}
}
