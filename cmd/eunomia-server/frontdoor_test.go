package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// waitHealthy polls a front door's /healthz until it serves.
func waitHealthy(t *testing.T, p *proc, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("front door %s never came up: %v\n%s", addr, err, p.output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// frontPut writes via a front door and returns the advanced session token.
func frontPut(t *testing.T, hc *http.Client, addr, key, value, token string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, "http://"+addr+"/kv/"+key, strings.NewReader(value))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set(sessionHeader, token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT %s via %s: %s: %s", key, addr, resp.Status, body)
	}
	next := resp.Header.Get(sessionHeader)
	if next == "" {
		t.Fatalf("PUT %s via %s returned no session token", key, addr)
	}
	return next
}

// frontGet reads via a front door; the session token makes it a
// read-your-writes read regardless of which datacenter addr lives in.
func frontGet(t *testing.T, hc *http.Client, addr, key, token string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/kv/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set(sessionHeader, token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s via %s: %s: %s", key, addr, resp.Status, body)
	}
	return string(body), resp.Header.Get(sessionHeader)
}

// TestFrontdoorSessionMigrationOverTCP is the §4 migration guarantee at
// the HTTP surface, end to end over real TCP: a client writes through
// dc0's front door, carries its X-Causal-Session token to dc1's front
// door, and must read its own write there (the read blocks until dc1 has
// applied the session's causal history) — then migrates back, repeatedly.
func TestFrontdoorSessionMigrationOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process front-door test in -short mode")
	}
	bin := buildServer(t)
	addr0, addr1 := freePort(t), freePort(t)
	fd0, fd1 := freePort(t), freePort(t)
	common := []string{"-mode", "eunomia", "-dcs", "2", "-partitions", "2",
		"-replicas", "1", "-stats-interval", "1h"}

	p0 := startProc(t, bin, append([]string{
		"-role", "dc", "-dc", "0", "-listen", addr0,
		"-route", "dc1=" + addr1,
		"-frontend-addr", fd0,
	}, common...)...)
	defer p0.kill()
	p1 := startProc(t, bin, append([]string{
		"-role", "dc", "-dc", "1", "-listen", addr1,
		"-route", "dc0=" + addr0,
		"-frontend-addr", fd1,
	}, common...)...)
	defer p1.kill()
	waitHealthy(t, p0, fd0)
	waitHealthy(t, p1, fd1)

	hc := &http.Client{Timeout: 60 * time.Second}
	token := ""
	for i := 0; i < 20; i++ {
		// Write at dc0, migrate to dc1, read your write.
		want := fmt.Sprintf("value%d", i)
		token = frontPut(t, hc, fd0, "session-key", want, token)
		got, next := frontGet(t, hc, fd1, "session-key", token)
		if got != want {
			t.Fatalf("iteration %d: dc1 front door served %q for the session that wrote %q\ndc0:\n%s\ndc1:\n%s",
				i, got, want, p0.output(), p1.output())
		}
		token = next
		// Migrate back: write at dc1, read your write at dc0.
		want = fmt.Sprintf("reply%d", i)
		token = frontPut(t, hc, fd1, "session-key", want, token)
		got, next = frontGet(t, hc, fd0, "session-key", token)
		if got != want {
			t.Fatalf("iteration %d: dc0 front door served %q for the session that wrote %q at dc1",
				i, got, want)
		}
		token = next
	}
	if !strings.HasPrefix(token, "cs1:v:") {
		t.Fatalf("session token %q does not carry vector metadata", token)
	}

	// A malformed token is the client's fault: 400, not a hung wait.
	req, _ := http.NewRequest(http.MethodGet, "http://"+fd0+"/kv/session-key", nil)
	req.Header.Set(sessionHeader, "cs1:v:not-hex")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed token got %s, want 400", resp.Status)
	}
}

// TestOperationsDocCoversEveryFlag lints OPERATIONS.md against the
// binary's actual flag set, both ways: every -flag the server accepts must
// be documented, and every row of the "Flag reference" tables must name a
// flag the server accepts, so the reference cannot silently rot as flags
// land or go.
func TestOperationsDocCoversEveryFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process test in -short mode")
	}
	out, err := exec.Command(buildServer(t), "-help").CombinedOutput()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)\b`)
	matches := flagRe.FindAllStringSubmatch(string(out), -1)
	if len(matches) < 20 {
		t.Fatalf("parsed only %d flags from -help; output:\n%s", len(matches), out)
	}
	raw, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	doc := string(raw)
	accepted := make(map[string]bool, len(matches))
	var missing []string
	for _, m := range matches {
		accepted[m[1]] = true
		if !strings.Contains(doc, "`-"+m[1]+"`") {
			missing = append(missing, "-"+m[1])
		}
	}
	if len(missing) > 0 {
		t.Fatalf("OPERATIONS.md does not document: %s (every eunomia-server flag needs a `-flag` entry)",
			strings.Join(missing, ", "))
	}

	// The server's flag tables run from "## Flag reference" to the next
	// top-level section; eunomia-load's table lives elsewhere.
	start := strings.Index(doc, "\n## Flag reference\n")
	if start < 0 {
		t.Fatal(`OPERATIONS.md has no "## Flag reference" section`)
	}
	ref := doc[start+1:]
	if end := strings.Index(ref[1:], "\n## "); end >= 0 {
		ref = ref[:end+1]
	}
	rowRe := regexp.MustCompile("(?m)^\\| `-([a-z][a-z0-9-]*)`")
	rows := rowRe.FindAllStringSubmatch(ref, -1)
	if len(rows) < len(matches) {
		t.Fatalf("parsed only %d flag rows from the Flag reference, want at least %d", len(rows), len(matches))
	}
	var unknown []string
	for _, r := range rows {
		if !accepted[r[1]] {
			unknown = append(unknown, "-"+r[1])
		}
	}
	if len(unknown) > 0 {
		t.Fatalf("OPERATIONS.md's Flag reference documents flags eunomia-server does not accept: %s",
			strings.Join(unknown, ", "))
	}
}
