package kernel

// Fix describes one row of Figure 1: a kernel scalability problem, the
// applications that trigger it, and the PK solution.
type Fix struct {
	// Name is a short identifier (used by the CLI and ablation benches).
	Name string
	// Problem is the bottleneck description from Figure 1.
	Problem string
	// Solution is the fix description from Figure 1.
	Solution string
	// Apps lists the MOSBENCH applications affected.
	Apps []string
	// Flag points at this fix's switch in a config.
	Flag func(*Config) *bool
}

// Fixes is the Figure 1 registry, in the paper's order.
var Fixes = []Fix{
	{
		Name:     "parallel-accept",
		Problem:  "Concurrent accept system calls contend on shared socket fields.",
		Solution: "User per-core backlog queues for listening sockets.",
		Apps:     []string{"Apache"},
		Flag:     func(c *Config) *bool { return &c.Net.ParallelAccept },
	},
	{
		Name:     "dentry-ref",
		Problem:  "File name resolution contends on directory entry reference counts.",
		Solution: "Use sloppy counters to reference count directory entry objects.",
		Apps:     []string{"Apache", "Exim"},
		Flag:     func(c *Config) *bool { return &c.VFS.SloppyDentryRef },
	},
	{
		Name:     "vfsmount-ref",
		Problem:  "Walking file name paths contends on mount point reference counts.",
		Solution: "Use sloppy counters for mount point objects.",
		Apps:     []string{"Apache", "Exim"},
		Flag:     func(c *Config) *bool { return &c.VFS.SloppyVfsmountRef },
	},
	{
		Name:     "dst-ref",
		Problem:  "IP packet transmission contends on routing table entries.",
		Solution: "Use sloppy counters for IP routing table entries.",
		Apps:     []string{"memcached", "Apache"},
		Flag:     func(c *Config) *bool { return &c.Net.SloppyDstRef },
	},
	{
		Name:     "proto-mem",
		Problem:  "Cores contend on counters for tracking protocol memory consumption.",
		Solution: "Use sloppy counters for protocol usage counting.",
		Apps:     []string{"memcached", "Apache"},
		Flag:     func(c *Config) *bool { return &c.Net.SloppyProtoMem },
	},
	{
		Name:     "dentry-lock",
		Problem:  "Walking file name paths contends on per-directory entry spin locks.",
		Solution: "Use a lock-free protocol in dlookup for checking filename matches.",
		Apps:     []string{"Apache", "Exim"},
		Flag:     func(c *Config) *bool { return &c.VFS.LockFreeDlookup },
	},
	{
		Name:     "mount-lock",
		Problem:  "Resolving path names to mount points contends on a global spin lock.",
		Solution: "Use per-core mount table caches.",
		Apps:     []string{"Apache", "Exim"},
		Flag:     func(c *Config) *bool { return &c.VFS.PerCoreMountCache },
	},
	{
		Name:     "open-list",
		Problem:  "Cores contend on a per-super block list that tracks open files.",
		Solution: "Use per-core open file lists for each super block that has open files.",
		Apps:     []string{"Apache", "Exim"},
		Flag:     func(c *Config) *bool { return &c.VFS.PerCoreOpenList },
	},
	{
		Name:     "dma-buffers",
		Problem:  "DMA memory allocations contend on the memory node 0 spin lock.",
		Solution: "Allocate Ethernet device DMA buffers from the local memory node.",
		Apps:     []string{"memcached", "Apache"},
		Flag:     func(c *Config) *bool { return &c.Net.LocalDMABuf },
	},
	{
		Name:     "netdev-false-sharing",
		Problem:  "False sharing causes contention for read-only structure fields.",
		Solution: "Place read-only fields on their own cache lines.",
		Apps:     []string{"memcached", "Apache", "PostgreSQL"},
		Flag:     func(c *Config) *bool { return &c.Net.NetDevFalseSharingFix },
	},
	{
		Name:     "page-false-sharing",
		Problem:  "False sharing causes contention for read-mostly structure fields.",
		Solution: "Place read-only fields on their own cache lines.",
		Apps:     []string{"Exim"},
		Flag:     func(c *Config) *bool { return &c.MM.PageFalseSharingFix },
	},
	{
		Name:     "inode-lists",
		Problem:  "Cores contend on global locks protecting lists used to track inodes.",
		Solution: "Avoid acquiring the locks when not necessary.",
		Apps:     []string{"memcached", "Apache"},
		Flag:     func(c *Config) *bool { return &c.VFS.InodeListAvoidLock },
	},
	{
		Name:     "dcache-lists",
		Problem:  "Cores contend on global locks protecting lists used to track dentrys.",
		Solution: "Avoid acquiring the locks when not necessary.",
		Apps:     []string{"memcached", "Apache"},
		Flag:     func(c *Config) *bool { return &c.VFS.DcacheListAvoidLock },
	},
	{
		Name:     "lseek-mutex",
		Problem:  "Cores contend on a per-inode mutex in lseek.",
		Solution: "Use atomic reads to eliminate the need to acquire the mutex.",
		Apps:     []string{"PostgreSQL"},
		Flag:     func(c *Config) *bool { return &c.VFS.AtomicLseek },
	},
	{
		Name:     "superpage-locking",
		Problem:  "Super-page soft page faults contend on a per-process mutex.",
		Solution: "Protect each super-page memory mapping with its own mutex.",
		Apps:     []string{"Metis"},
		Flag:     func(c *Config) *bool { return &c.MM.PerMappingSuperPageMutex },
	},
	{
		Name:     "superpage-zeroing",
		Problem:  "Zeroing super-pages flushes the contents of on-chip caches.",
		Solution: "Use non-caching instructions to zero the contents of super-pages.",
		Apps:     []string{"Metis"},
		Flag:     func(c *Config) *bool { return &c.MM.NoncachingSuperPageZero },
	},
}
