package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// beMainEnv makes the test binary behave as dfsadmin itself, so the smoke
// test drives the real main — flags, the stdin loop, every command —
// without needing the go tool at test time.
const beMainEnv = "DFSADMIN_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenSession feeds one session through the shell and compares the
// transcript: a file of one and a half blocks is split and placed
// round-robin with its replicas, survives a rename, and is gone after rm;
// a bad command is reported and the shell carries on.
func TestGoldenSession(t *testing.T) {
	const session = `# a 96-byte file over 64-byte blocks
put /greeting hello world, this is a file that spans more than one sixty-four byte block of the simulated HDFS
ls /
locate /greeting
stat /greeting
cat /greeting

mkdir /d
mv /greeting /d/g
ls /d
rm /d/g
ls /d
cat /d/g
frob
put /x
help
`
	const golden = `simulated HDFS up: 4 nodes, 64B blocks, replication 2
-       96  /greeting
block 0: offset=0 len=64 hosts=node0,node1
block 1: offset=64 len=32 hosts=node1,node2
/greeting: size=96 dir=false blocksize=64 replication=2
hello world, this is a file that spans more than one sixty-four byte block of the simulated HDFS
-       96  /d/g
error: dfs: open /d/g: dfs: no such file or directory
error: unknown command "frob" (try help)
error: usage: put <path> <contents...>
commands: put cat ls stat locate rm mv mkdir help
`
	cmd := exec.Command(os.Args[0], "-nodes", "4")
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	cmd.Stdin = strings.NewReader(session)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dfsadmin: %v\n%s", err, out)
	}
	if string(out) != golden {
		t.Errorf("transcript differs.\ngot:\n%s\nwant:\n%s", out, golden)
	}
}
