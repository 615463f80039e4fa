package main

import (
	"os"
	"syscall"
	"unsafe"
)

// The ioctls behind chattr(1) and the flag chattr calls T.
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopDirFlag  = 0x00020000
)

// markTopDir asks the filesystem to treat dir as the top of a directory
// hierarchy (chattr +T): ext4 then places each new subdirectory of dir in a
// block group chosen by the subdirectory's name instead of in dir's own
// group, and a file always goes into its parent directory's group. The
// benchmark marks its own directories so that what a run creates and
// deletes is spread over the disk.
//
// It matters because on the build box (ext4 without a journal) creating a
// file costs 10–13 µs in a block group that has seen little traffic and
// 75–430 µs in one where thousands of files were deleted during the last
// minutes, the cost climbing and falling back in a sawtooth a minute long.
// A Hadoop rep of shuffle_remote or pagerank_iter creates and deletes
// 700–1000 files and directories; with all of them in the checkout's group
// the same rep took 0.25 s in one run and 0.45 s in the next. README.md,
// "Timing that repeats", has the measurements.
//
// A filesystem without the flag refuses the ioctl, and the benchmark runs as
// it would have.
func markTopDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	var flags int
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= fsTopDirFlag
	syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
