package apps

import (
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/sim"
)

// EximOpts configures the mail-server workload (§3.1, §5.2).
type EximOpts struct {
	// MessagesPerCore is the per-core message budget for the run.
	MessagesPerCore int
	// SpoolDirs is the number of spool directories incoming mail is
	// hashed across (the paper's modified configuration uses 62).
	SpoolDirs int
}

// DefaultEximOpts returns the paper's configuration.
func DefaultEximOpts() EximOpts {
	return EximOpts{MessagesPerCore: 40, SpoolDirs: 62}
}

// eximCosts is Exim's per-message fixed work (cycles), message sizes and
// client mix. Calibrated so one core spends roughly 69% of its time in
// the kernel (§3.1), with an absolute message cost within the paper's
// order of magnitude (hundreds of microseconds). Exim runs with
// deliver_drop_privilege, which avoids an exec per message, so a
// delivery forks but never execs.
var eximCosts = struct {
	eximUserWorkPerMessage, eximSMTPBytes, eximHeaderBytes, eximLogBytes int64
	eximMessagesPerConn, eximUsers                                       int
}{
	eximUserWorkPerMessage: 260_000, // parsing, routing, Berkeley DB
	eximSMTPBytes:          400,     // SMTP envelope + 20-byte body
	eximHeaderBytes:        600,     // stored message with headers
	eximLogBytes:           80,      // one mainlog line per delivery
	// eximMessagesPerConn is how many messages each SMTP connection
	// carries (the paper's clients send 10 to avoid port exhaustion).
	eximMessagesPerConn: 10,
	// eximUsers is the number of distinct destination mailboxes (one
	// per client in the paper, 96 clients).
	eximUsers: 96,
}

// RunExim executes the Exim workload: one worker per core processes SMTP
// connections; each message forks a per-connection process and two
// delivery processes, queues the message in a hashed spool directory,
// appends to the per-user mail file, deletes the spooled copy, and logs.
func RunExim(k *kernel.Kernel, opts EximOpts) Result {
	e := k.Engine
	fs := k.FS
	stack := k.NewStack(nil) // clients are on the same machine: loopback

	// Set up spool directories, user mailboxes, and the shared log.
	var buf [32]byte
	for d := 0; d < opts.SpoolDirs; d++ {
		fs.MustMkdirAll(string(eximSpoolDir(buf[:0], d)))
	}
	for u := 0; u < eximCosts.eximUsers; u++ {
		fs.MustCreateFile(string(eximMailbox(buf[:0], u)), 0)
	}
	fs.MustCreateFile("/var/log/exim/mainlog", 0)
	for _, path := range eximConfigPaths {
		fs.MustCreateFile(path, 4096)
	}

	cores := k.Machine.NCores
	workers := onlineCores(k)
	for _, c := range workers {
		e.Spawn(c, "exim", 0, func(p *sim.Proc) {
			mailAS := k.NewAddressSpace(p.Chip())
			master := k.Procs.NewInitProcess(mailAS)
			sent := 0
			for sent < opts.MessagesPerCore {
				// One SMTP connection: the master accepts and forks a
				// per-connection process.
				stack.DialLoopback(p)
				connProc := k.Procs.Fork(p, master, mailAS)
				k.Procs.ChildStart(p, connProc)
				n := eximCosts.eximMessagesPerConn
				if rem := opts.MessagesPerCore - sent; n > rem {
					n = rem
				}
				for m := 0; m < n; m++ {
					user := e.Rand.Intn(eximCosts.eximUsers)
					spool := e.Rand.Intn(opts.SpoolDirs)
					eximMessage(k, p, stack, connProc, user, spool)
					sent++
				}
				k.Procs.Exit(p, connProc)
				stack.CloseLoopback(p)
			}
		})
	}
	e.Run()
	return Result{
		App:        "Exim",
		Cores:      cores,
		Ops:        int64(len(workers) * opts.MessagesPerCore),
		NetRetries: stack.Retries(),
		NetDups:    stack.Duplicated(),
		WallCycles: e.Now(),
		UserCycles: e.TotalUserCycles(),
		SysCycles:  e.TotalSysCycles(),
	}
}

// eximSpoolDir appends the path of spool directory d to b.
func eximSpoolDir(b []byte, d int) []byte {
	return appendNum(append(b, "/var/spool/input/"...), int64(d), 2)
}

// eximMailbox appends the path of user u's mailbox to b.
func eximMailbox(b []byte, u int) []byte {
	return appendNum(append(b, "/var/mail/user"...), int64(u), 2)
}

// eximMessage models receiving and delivering one message.
func eximMessage(k *kernel.Kernel, p *sim.Proc, stack *netsim.Stack,
	connProc *proc.Process, user, spool int) {

	fs := k.FS
	// The message's spool files are m<core>-<arrival cycle>-H and -D.
	// One string holds the header file's path, <dir>/<msg>-H, and then
	// the data file's name, <msg>-D; the directory, both names and the
	// path are substrings of it, so a message allocates one heap object.
	var buf [96]byte
	b := append(eximSpoolDir(buf[:0], spool), '/')
	nDir := len(b)
	b = appendNum(append(b, 'm'), int64(p.Core()), 0)
	b = appendNum(append(b, '-'), p.Now(), 0)
	nMsg := len(b)
	b = append(b, "-H"...)
	nHdr := len(b)
	b = append(append(b, b[nDir:nMsg]...), "-D"...)
	names := string(b)
	dir, hPath := names[:nDir-1], names[:nHdr]
	hName, dName := names[nDir:nHdr], names[nHdr:]

	// Receive the message body over the SMTP connection.
	stack.LoopbackXfer(p, eximCosts.eximSMTPBytes)

	// Configuration and hints lookups: Exim stats its configuration,
	// router files, and Berkeley DB hints on each delivery, so each
	// message performs many path walks (these are what make the stock
	// vfsmount table so hot, §5.2).
	for _, path := range eximConfigPaths {
		fs.Stat(p, path)
	}

	// Queue: create header (-H) and data (-D) files in the spool
	// directory. The per-directory i_mutex inside Create is the residual
	// PK bottleneck.
	fh := fs.Create(p, dir, hName)
	fs.Append(p, fh, eximCosts.eximHeaderBytes)
	fs.Close(p, fh)
	fd := fs.Create(p, dir, dName)
	fs.Append(p, fd, eximCosts.eximSMTPBytes)
	fs.Close(p, fd)

	// Fork twice to deliver the message (per-connection process forks a
	// delivery pair, §3.1).
	for i := 0; i < 2; i++ {
		child := k.Procs.Fork(p, connProc, connProc.AS)
		k.Procs.ChildStart(p, child)
		k.Procs.Exit(p, child)
	}

	// Delivery: locate the spooled message, append to the user's
	// mailbox, remove the spool files, and log the delivery.
	fs.Stat(p, hPath)
	mf := fs.Open(p, string(eximMailbox(buf[:0], user)))
	fs.Append(p, mf, eximCosts.eximHeaderBytes+eximCosts.eximSMTPBytes)
	fs.Close(p, mf)
	fs.Unlink(p, dir, hName)
	fs.Unlink(p, dir, dName)
	lf := fs.Open(p, "/var/log/exim/mainlog")
	fs.Append(p, lf, eximCosts.eximLogBytes)
	fs.Close(p, lf)

	// User-mode processing (routing, expansion, Berkeley DB hints).
	p.AdvanceUser(eximCosts.eximUserWorkPerMessage)
}

// eximConfigPaths are the per-message stat targets (configuration, router
// data, hints databases).
var eximConfigPaths = []string{
	"/etc/exim/exim.conf",
	"/etc/exim/aliases",
	"/var/spool/exim/db/retry",
	"/var/spool/exim/db/wait-remote_smtp",
	"/etc/passwd",
	"/etc/localtime",
}
