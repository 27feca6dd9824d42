package panasync_test

import (
	"fmt"

	"versionstamp/internal/panasync"
)

// The PANASYNC scenario from the paper's own deployment: dependency
// tracking among file copies carried across disconnected machines, with
// conflict detection and reconciliation.
func ExampleWorkspace() {
	fs := panasync.NewMemFS()
	ws := panasync.NewWorkspace(fs)
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// A report lives on the office desktop.
	check(fs.WriteFile("office/report.txt", []byte("draft v1")))
	check(ws.Init("office/report.txt"))

	// Copy it to a laptop before travelling (fork — no server consulted).
	// On the plane, the laptop copy spawns a phone copy. Still no network.
	check(ws.Copy("office/report.txt", "laptop/report.txt"))
	check(ws.Copy("laptop/report.txt", "phone/report.txt"))

	// Independent edits while partitioned.
	check(fs.WriteFile("laptop/report.txt", []byte("draft v2 (laptop)")))
	check(ws.Edit("laptop/report.txt"))
	check(fs.WriteFile("office/report.txt", []byte("draft v2 (office)")))
	check(ws.Edit("office/report.txt"))

	// Back online: how do the copies relate?
	for _, pair := range [][2]string{
		{"phone/report.txt", "laptop/report.txt"},  // phone is stale
		{"laptop/report.txt", "office/report.txt"}, // a true conflict
	} {
		rel, err := ws.Compare(pair[0], pair[1])
		check(err)
		fmt.Printf("%-17s vs %-17s: %v\n", pair[0], pair[1], rel)
	}

	// The stale copy refreshes without a resolver.
	check(ws.Sync("phone/report.txt", "laptop/report.txt", nil))

	// The real conflict needs a merge; the merge counts as a new update.
	merge := func(_, _ string, a, b []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("merged: %q + %q", a, b)), nil
	}
	check(ws.Sync("laptop/report.txt", "office/report.txt", merge))
	content, err := fs.ReadFile("office/report.txt")
	check(err)
	fmt.Printf("office after merge: %s\n", content)

	tracked, err := ws.Tracked()
	check(err)
	for _, st := range tracked {
		fmt.Printf("%-17s stamp %v\n", st.Path, st.Stamp)
	}
	// Output:
	// phone/report.txt  vs laptop/report.txt: before
	// laptop/report.txt vs office/report.txt: concurrent
	// office after merge: merged: "draft v2 (laptop)" + "draft v2 (office)"
	// laptop/report.txt stamp [0+11|00+110]
	// office/report.txt stamp [0+11|01+111]
	// phone/report.txt  stamp [1|10]
}
