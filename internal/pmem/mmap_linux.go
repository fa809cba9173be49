//go:build linux

package pmem

import (
	"os"
	"syscall"
	"unsafe"
)

// mmapFile maps size bytes of f shared and read-write. MAP_SHARED is what
// makes SIGKILL survivable: the dirty pages belong to the kernel's page
// cache, not the dying process, so they reach the file even if the process
// never calls msync.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }

// msyncRange writes the mapped range back to the file: MS_SYNC blocks until
// the data is on storage (power-failure durability), MS_ASYNC only schedules
// the write-back. b must start page-aligned (callers round within the
// mapping, whose base is page-aligned by construction).
func msyncRange(b []byte, async bool) error {
	if len(b) == 0 {
		return nil
	}
	flags := uintptr(syscall.MS_SYNC)
	if async {
		flags = syscall.MS_ASYNC
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), flags)
	if errno != 0 {
		return errno
	}
	return nil
}

// lseek whence values that report a file's extents (linux/fs.h).
const (
	seekData = 3
	seekHole = 4
)

// dataExtent returns the first extent [start, end) of f at or after byte off
// that holds data; start is -1 when none does. Pages dirtied through the
// mapping count as data before they are written back. An error (EINVAL from
// a filesystem that cannot report extents) leaves the caller to treat the
// rest of the file as data.
func dataExtent(f *os.File, off int64) (start, end int64, err error) {
	fd := int(f.Fd())
	start, err = syscall.Seek(fd, off, seekData)
	if err == syscall.ENXIO {
		return -1, -1, nil
	}
	if err != nil {
		return 0, 0, err
	}
	end, err = syscall.Seek(fd, start, seekHole)
	return start, end, err
}

// wordsOf views a page-aligned byte mapping as a []uint64.
func wordsOf(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}
