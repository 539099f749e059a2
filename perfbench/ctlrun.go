package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ctl"
	"repro/internal/rule"
	"repro/internal/tables"
)

const (
	probeWindow = time.Second // the ctl probe's lookup window
	// lanePace spaces the control lane's update steps: a
	// decision-control plane pushing at most 1000 updates a second. A
	// lane that never paused would, with its RCU writer spinning while
	// in-flight lookups drain, hold one of the two cores and leave the
	// lookups' figures to the host's scheduler.
	lanePace = 2 * time.Millisecond
)

// daemon is a classifierd child process listening on loopback.
type daemon struct {
	cmd      *exec.Cmd
	ctlAddr  string
	httpAddr string
	drained  chan struct{} // closed once the child's stderr reaches EOF
}

// startDaemon spawns classifierd on ephemeral loopback ports and waits
// until it has logged both listen addresses.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start classifierd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		var a [2]string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				a[0] = strings.TrimSpace(line[i+len("listening on "):])
			}
			if i := strings.Index(line, "admin API) on "); i >= 0 {
				a[1] = strings.TrimSpace(line[i+len("admin API) on "):])
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-addrs:
		d.ctlAddr, d.httpAddr = a[0], a[1]
		return d, nil
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("classifierd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("classifierd did not log its listen addresses within 30s")
	}
}

// stop asks the daemon to drain and exit, kills it if it does not, and
// waits for the process and its stderr reader to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // the exit status of a signalled daemon carries no information
}

// tableStats reads the main table's statistics record from the HTTP
// plane: the same tables.TableStats the STATS line renders, with the
// latency quantiles the STATS line leaves out.
func (d *daemon) tableStats() (tables.TableStats, error) {
	var st tables.TableStats
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + d.httpAddr + "/v1/tables/" + ctl.DefaultTable + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("table stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// ctlTarget drives the daemon's current table over one connection; the
// probe never swaps, so it has no replace.
func ctlTarget(c *ctl.Client) target {
	return target{
		insert: func(r rule.Rule) error { _, err := c.Insert(r); return err },
		delete: func(id int) error { _, err := c.Delete(id); return err },
		snapshot: func() ([]string, error) {
			rs, err := c.Snapshot()
			return canonAll(rs, canon4), err
		},
		canon: canon4,
	}
}

// ctlSession is one daemon's run: connection 1 sends closed-loop
// 64-header MLOOKUPs, connection 2 is the control lane.
type ctlSession struct {
	d          *daemon
	look, lane *ctl.Client
}

// openSession spawns classifierd, connects both lanes and bulk loads
// the base ruleset.
func openSession(o options, in *inputs) (*ctlSession, error) {
	d, err := startDaemon(o.daemon)
	if err != nil {
		return nil, err
	}
	s := &ctlSession{d: d}
	if s.look, err = ctl.Dial(d.ctlAddr); err == nil {
		if s.lane, err = ctl.Dial(d.ctlAddr); err == nil {
			_, err = s.lane.BulkInsert(in.rules.Rules())
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("load classifierd: %w", err)
	}
	return s, nil
}

func (s *ctlSession) close() {
	if s.look != nil {
		s.look.Close()
	}
	if s.lane != nil {
		s.lane.Close()
	}
	s.d.stop()
}

// mlooker classifies bursts over MLOOKUP and checks their verdicts.
type mlooker struct {
	in  *inputs
	c   *ctl.Client
	res []ctl.LookupResult
	err error
}

func (m *mlooker) classify(_ int, b burst) { m.res, m.err = m.c.MLookup(b.hdrs) }

func (m *mlooker) check(_ int, b burst) int {
	if m.err != nil || len(m.res) != len(b.idx) {
		return len(b.idx)
	}
	wrong := 0
	for j, i := range b.idx {
		w, g := m.in.want[i], m.res[j]
		if g.Found != w.found || w.found && (g.RuleID != w.id || g.Priority != w.prio || g.Action != w.action.String()) {
			wrong++
		}
	}
	return wrong
}

// ctlOutcome is what a session measured.
type ctlOutcome struct {
	reads  loopStats  // MLOOKUP round trips
	lane   laneResult // the control lane's update steps
	server tables.TableStats
}

// runSession warms up, then runs one window: connection 1 sends
// closed-loop MLOOKUPs, timed on the wall clock, while the control
// lane, on connection 2, takes one update step per lanePace, so writes
// run beside reads. It then checks the ruleset the lane left and reads
// the daemon's own statistics.
func runSession(s *ctlSession, in *inputs, r *report, window time.Duration) (*ctlOutcome, error) {
	all := make([]int, len(in.hdrs))
	for i := range all {
		all[i] = i
	}
	ls := []*lane{newLane(all, in.frames, in.hdrs)}
	m := &mlooker{in: in, c: s.look}
	lr := &laneRunner{t: ctlTarget(s.lane), pool: in.pool}
	look := func(w time.Duration) loopStats {
		st := closedLoop(ls, 0, w, onWall(m.classify), m.check)
		r.count(st.checked, st.wrong)
		if m.err != nil {
			r.problem("MLOOKUP: %v", m.err)
			m.err = nil
		}
		return st
	}

	// Warm-up: the lane fills and takes its first steps beside the
	// lookups; the recorded lane steps start with the window.
	out := &ctlOutcome{}
	var stop atomic.Bool
	var laneErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if laneErr = lr.fill(); laneErr == nil {
			laneErr = lr.run(lanePace, true, stop.Load)
		}
	}()
	look(warmup)
	stop.Store(true)
	wg.Wait()
	if laneErr == nil {
		stop.Store(false)
		wg.Add(1)
		go func() {
			defer wg.Done()
			laneErr = lr.run(lanePace, false, stop.Load)
		}()
		out.reads = look(window)
		stop.Store(true)
		wg.Wait()
	}
	out.lane = lr.res
	r.count(out.lane.ops(), 0)
	if laneErr != nil {
		r.count(1, 1)
		r.problem("control lane: %v", laneErr)
	}
	checkRules(r, "after the control lane", lr.t, append(append([]rule.Rule(nil), in.rules.Rules()...), liveAfter(out.lane.steps, in.pool)...))
	var err error
	if out.server, err = s.d.tableStats(); err != nil {
		return nil, err
	}
	return out, nil
}

// ctlLayer measures the ctl layer in a traced run: a short session
// against a daemon holding the workload's IPv4 rules. The round trip
// has no child spans the client can see, so the server layer's time
// comes from the daemon's own latency histogram and the wire layer
// (parse, format and the loopback interface) is the remainder.
func ctlLayer(o options, in *inputs, r *report) error {
	s, err := openSession(o, in)
	if err != nil {
		return err
	}
	defer s.close()
	out, err := runSession(s, in, r, probeWindow)
	if err != nil {
		return err
	}
	lookup := float64(out.server.LookupLatency.P50Ns) / 1e3
	rtt := summarize(out.reads.lat)
	r.note("MLOOKUP round trip beside paced writes, wall (us): %v", rtt)
	r.set("ctl.server_lookup_p50_us", lookup)
	r.set("ctl.server_update_p50_us", float64(out.server.UpdateLatency.P50Ns)/1e3)
	r.set("ctl.wire_p50_us", rtt.p50-lookup)
	return nil
}
