package server

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestREADMERouteTable keeps README.md's route table in step with
// routeTable(): the same method, path and name rows, no more, no less.
func TestREADMERouteTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	in := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| Endpoint | Method | Name |") {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("malformed route row %q", line)
		}
		cell := func(i int) string { return strings.Trim(strings.TrimSpace(cells[i]), "`") }
		documented = append(documented, cell(2)+" "+cell(1)+" "+cell(3))
	}
	var served []string
	srv, _ := seedServer(t, 0, Options{})
	for _, rt := range srv.routeTable() {
		served = append(served, rt.Method+" /v1"+rt.Path+" "+rt.Name)
	}
	sort.Strings(documented)
	sort.Strings(served)
	if strings.Join(documented, "\n") != strings.Join(served, "\n") {
		t.Fatalf("README route table:\n%s\n\nroute table:\n%s", strings.Join(documented, "\n"), strings.Join(served, "\n"))
	}
}
