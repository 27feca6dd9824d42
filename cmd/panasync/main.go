// Command panasync is a file-copy dependency tracker in the style of the
// PANASYNC toolset, the system in which the paper's version stamps first
// shipped (paper §7). It tracks copies of single files with version-stamp
// sidecars and answers, with no server and no global configuration, how any
// two copies relate:
//
//	$ panasync -root ~/docs init report.txt
//	$ panasync -root ~/docs copy report.txt backup/report.txt
//	$ ... edit report.txt ...
//	$ panasync -root ~/docs edit report.txt
//	$ panasync -root ~/docs compare report.txt backup/report.txt
//	after
//	$ panasync -root ~/docs sync report.txt backup/report.txt
//	$ panasync -root ~/docs list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/panasync"
	"versionstamp/internal/ring"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "panasync:", err)
		os.Exit(1)
	}
}

const usage = `usage: panasync -root <dir> <command> [arguments]

commands:
  init <file>            start tracking a file (it becomes the seed copy)
  copy <src> <dst>       duplicate a tracked file; the stamp forks
  edit <file>            record that the file's content was changed
  status <file>          print the stamp and whether edits are unrecorded
  compare <a> <b>        print equal | before | after | concurrent
  sync <a> <b>           reconcile two copies (conflicts need -merge)
  forget <file>          stop tracking a file
  list                   list all tracked copies
  serve                  serve the workspace for network sync (see -listen)
  netsync <addr>         synchronize the whole workspace with a serving peer

flags:
  -root <dir>       workspace root (default ".")
  -merge            on conflicting sync, concatenate both contents with a marker
  -listen <addr>    serve: listen address (default 127.0.0.1:0)
  -linger <dur>     serve: stop after this duration (default 0 = forever)
  -data-dir <dir>   serve: durable WAL-backed store; survives crashes and
                    restarts without whole-state snapshots (default off)
  -node <id>        serve: this node's identity on the ring (default "serve")
  -join <ids>       serve: comma-separated peer identities forming the ring
  -ring <R>         serve: replication factor; with -join, prints a ring-status
                    report of stripe ownership across the members (default 0 = off)
`

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("panasync", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	root := fs.String("root", ".", "workspace root directory")
	merge := fs.Bool("merge", false, "resolve conflicting syncs by concatenation")
	listen := fs.String("listen", "127.0.0.1:0", "serve: listen address")
	linger := fs.Duration("linger", 0, "serve: stop after this duration (0 = forever)")
	dataDir := fs.String("data-dir", "", "serve: durable WAL-backed store directory (empty = in-memory)")
	nodeID := fs.String("node", "serve", "serve: this node's ring identity")
	join := fs.String("join", "", "serve: comma-separated peer identities forming the ring")
	ringR := fs.Int("ring", 0, "serve: replication factor (0 = ring mode off)")
	if err := fs.Parse(args); err != nil {
		fmt.Fprint(out, usage)
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprint(out, usage)
		return errors.New("missing command")
	}
	dirFS, err := panasync.NewDirFS(*root)
	if err != nil {
		return err
	}
	ws := panasync.NewWorkspace(dirFS)

	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "help":
		fmt.Fprint(out, usage)
		return nil
	case "init":
		if len(rest) != 1 {
			return errors.New("init takes one file")
		}
		if err := ws.Init(rest[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "tracking %s\n", rest[0])
		return nil
	case "copy":
		if len(rest) != 2 {
			return errors.New("copy takes source and destination")
		}
		if err := ws.Copy(rest[0], rest[1]); err != nil {
			return err
		}
		fmt.Fprintf(out, "copied %s -> %s (identities forked)\n", rest[0], rest[1])
		return nil
	case "edit":
		if len(rest) != 1 {
			return errors.New("edit takes one file")
		}
		if err := ws.Edit(rest[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded update on %s\n", rest[0])
		return nil
	case "status":
		if len(rest) != 1 {
			return errors.New("status takes one file")
		}
		st, err := ws.Stat(rest[0])
		if err != nil {
			return err
		}
		printStatus(out, st)
		return nil
	case "compare":
		if len(rest) != 2 {
			return errors.New("compare takes two files")
		}
		rel, err := ws.Compare(rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rel)
		return nil
	case "sync":
		if len(rest) != 2 {
			return errors.New("sync takes two files")
		}
		var resolver panasync.Resolver
		if *merge {
			resolver = concatResolver
		}
		if err := ws.Sync(rest[0], rest[1], resolver); err != nil {
			return err
		}
		fmt.Fprintf(out, "synchronized %s and %s\n", rest[0], rest[1])
		return nil
	case "forget":
		if len(rest) != 1 {
			return errors.New("forget takes one file")
		}
		if err := ws.Forget(rest[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "forgot %s\n", rest[0])
		return nil
	case "serve":
		if len(rest) != 0 {
			return errors.New("serve takes no arguments")
		}
		return serve(ws, out, *listen, *linger, *merge, *dataDir, *nodeID, *join, *ringR)
	case "netsync":
		if len(rest) != 1 {
			return errors.New("netsync takes a peer address")
		}
		return netsync(ws, out, rest[0])
	case "list":
		if len(rest) != 0 {
			return errors.New("list takes no arguments")
		}
		statuses, err := ws.Tracked()
		if err != nil {
			return err
		}
		for _, st := range statuses {
			printStatus(out, st)
		}
		return nil
	default:
		fmt.Fprint(out, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// serve exports the workspace as a sharded kvstore replica and serves
// per-shard anti-entropy rounds to peers running `panasync netsync`. When
// the server stops — after -linger, or on SIGINT/SIGTERM in the default
// serve-forever mode — the merged state is written back into the
// workspace.
//
// With -data-dir the replica is WAL-backed: every mutation a peer round
// applies lands in the directory's per-stripe log before it is
// acknowledged, the workspace merges into whatever state the directory
// already holds (so a crashed server restarts from its own log, not from a
// snapshot), and a graceful stop checkpoints the store so the next start
// replays nothing.
// With -ring R (and -join listing the peers that serve the same workspace)
// the server also reports its position on the consistent-hash ring: which
// stripes it owns, and which peers own each tracked file — so an operator
// running one `panasync serve` per site can see who is responsible for
// what before pointing `netsync` at the right owners. Ring mode changes
// the report, not the protocol: every stripe is still served, because a
// non-owner may be a peer's only reachable sync partner.
func serve(ws *panasync.Workspace, out io.Writer, listen string, linger time.Duration, merge bool, dataDir, nodeID, join string, ringR int) error {
	var (
		replica *kvstore.Replica
		base    *panasync.Baseline
		err     error
	)
	if dataDir != "" {
		replica, err = kvstore.Open(dataDir, kvstore.Options{Label: "serve"})
		if err != nil {
			return err
		}
		base, err = panasync.MergeIntoReplica(ws, replica)
	} else {
		replica, base, err = panasync.ToReplica(ws, "serve")
	}
	if err != nil {
		return err
	}
	srv := antientropy.NewServer(replica, kvResolver(merge))
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving workspace on %s (%d files, %d shards)\n",
		addr, replica.Len(), replica.Shards())
	// Storage health: a damaged -data-dir no longer refuses to serve — the
	// corrupt stripe is quarantined and everything else loads — but the
	// operator must see the degradation and that a peer sync repairs it.
	if dataDir != "" {
		if q := replica.Quarantined(); len(q) > 0 {
			fmt.Fprintf(out, "storage: quarantined stripe(s) %v — serving the intact remainder; peer rounds re-fill their contents\n", q)
		}
		if perr := replica.PersistErr(); perr != nil {
			fmt.Fprintf(out, "storage: durability degraded: %v\n", perr)
		}
	}
	if ringR > 0 {
		if err := ringReport(out, replica, nodeID, join, ringR); err != nil {
			_ = srv.Close()
			return err
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	if linger > 0 {
		select {
		case <-time.After(linger):
		case <-stop:
		}
	} else {
		<-stop // serve until interrupted, then write back
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if dataDir != "" {
		// Graceful-shutdown checkpoint: the directory reopens replaying no
		// log. A crash instead of this path just replays more log.
		if err := replica.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpointed %d files to %s\n", replica.Len(), dataDir)
	}
	skipped, err := panasync.ApplyReplica(ws, replica, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stopped; workspace updated (%d files)\n", replica.Len())
	for _, p := range skipped {
		fmt.Fprintf(out, "kept local edit made during the sync: %s (sync again to reconcile)\n", p)
	}
	return nil
}

// netsync synchronizes the whole workspace with a serving peer: one
// anti-entropy round over a pooled connection — digest-tree roots travel
// first, digests only for the leaves under roots that differ, stamps prune
// the unchanged files from the wire — then the merged state is
// written back into the workspace. Conflicts are resolved by the serving
// side's -merge setting; unresolved ones are reported here.
func netsync(ws *panasync.Workspace, out io.Writer, addr string) error {
	replica, base, err := panasync.ToReplica(ws, "netsync")
	if err != nil {
		return err
	}
	pool := antientropy.NewPool()
	defer pool.Close()
	res, err := pool.SyncWith(addr, replica)
	if err != nil {
		return err
	}
	skipped, err := panasync.ApplyReplica(ws, replica, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "synchronized with %s: %d transferred, %d reconciled, %d merged, %d unchanged (pruned)\n",
		addr, res.Transferred, res.Reconciled, res.Merged, res.Pruned)
	fmt.Fprintf(out, "summary phase: %d of %d stripes skipped unread; wire: %dB sent, %dB received; %d dial(s)\n",
		res.StripesSkipped, replica.Shards(), res.BytesSent, res.BytesReceived, pool.Dials())
	for _, k := range res.Conflicts {
		fmt.Fprintf(out, "conflict left unresolved: %s (serve with -merge to resolve)\n", k)
	}
	for _, p := range skipped {
		fmt.Fprintf(out, "kept local edit made during the sync: %s (sync again to reconcile)\n", p)
	}
	return nil
}

// ringReport prints this node's view of the consistent-hash ring formed by
// -node plus the -join roster: member count, the stripes owned here, and
// each tracked file's owners. Files map to stripes exactly as the sharded
// replica maps them (ShardIndex over the shard count), so the report shows
// what stripe-scoped anti-entropy would make this node responsible for.
func ringReport(out io.Writer, replica *kvstore.Replica, nodeID, join string, ringR int) error {
	roster := []string{nodeID}
	for _, p := range strings.Split(join, ",") {
		if p = strings.TrimSpace(p); p != "" && p != nodeID {
			roster = append(roster, p)
		}
	}
	// The ring package clamps replication to the member count (membership
	// churn can legitimately shrink a ring below R); at the CLI a factor
	// beyond the roster is a configuration mistake, so reject it up front.
	if ringR > len(roster) {
		return fmt.Errorf("ring: replication %d exceeds the %d-member roster (-join more peers)",
			ringR, len(roster))
	}
	r, err := ring.New(roster, replica.Shards(), ringR)
	if err != nil {
		return fmt.Errorf("ring: %w", err)
	}
	owned := r.StripesOwnedBy(nodeID)
	fmt.Fprintf(out, "ring: %d members, replication %d, %d stripes; %s owns %d stripes\n",
		len(roster), ringR, r.Stripes(), nodeID, len(owned))
	keys := replica.Keys()
	sort.Strings(keys)
	for _, key := range keys {
		s := kvstore.ShardIndex(key, replica.Shards())
		owners, err := r.Owners(s)
		if err != nil {
			return err
		}
		marker := " "
		if r.Owns(nodeID, s) {
			marker = "*" // this node is an owner
		}
		fmt.Fprintf(out, " %s stripe %2d  %-30s owners: %s\n",
			marker, s, key, strings.Join(owners, ", "))
	}
	return nil
}

// kvResolver adapts the -merge flag to the store's resolver: conflicting
// contents are concatenated under conflict markers, leaving the real merge
// to the user's editor. Without -merge conflicts are skipped and reported.
func kvResolver(merge bool) kvstore.Resolver {
	if !merge {
		return nil
	}
	return func(key string, a, b kvstore.Versioned) ([]byte, bool, error) {
		switch {
		case a.Deleted && b.Deleted:
			return nil, true, nil
		case a.Deleted:
			return b.Value, false, nil
		case b.Deleted:
			return a.Value, false, nil
		}
		var buf []byte
		buf = append(buf, []byte(fmt.Sprintf("<<<<<<< %s (server)\n", key))...)
		buf = append(buf, a.Value...)
		buf = append(buf, []byte("\n=======\n")...)
		buf = append(buf, b.Value...)
		buf = append(buf, []byte("\n>>>>>>>\n")...)
		return buf, false, nil
	}
}

func printStatus(out io.Writer, st panasync.Status) {
	dirty := ""
	if st.Dirty {
		dirty = "  (edited since last record — run `panasync edit`)"
	}
	fmt.Fprintf(out, "%-30s %s%s\n", st.Path, st.Stamp, dirty)
}

// concatResolver merges conflicting copies by concatenating both contents
// under conflict markers, leaving the real merge to the user's editor.
func concatResolver(pathA, pathB string, a, b []byte) ([]byte, error) {
	var buf []byte
	buf = append(buf, []byte(fmt.Sprintf("<<<<<<< %s\n", pathA))...)
	buf = append(buf, a...)
	buf = append(buf, []byte(fmt.Sprintf("\n======= %s\n", pathB))...)
	buf = append(buf, b...)
	buf = append(buf, []byte("\n>>>>>>>\n")...)
	return buf, nil
}
