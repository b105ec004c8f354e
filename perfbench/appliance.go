package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"nest/internal/acl"
	"nest/internal/chirp"
	"nest/internal/connmgr"
	"nest/internal/core"
	"nest/internal/dispatch"
	"nest/internal/ftp"
	"nest/internal/gridftp"
	"nest/internal/gsi"
	"nest/internal/httpx"
	"nest/internal/lots"
	"nest/internal/nfs"
	"nest/internal/protocol"
	"nest/internal/quota"
	"nest/internal/sched"
	"nest/internal/sim"
	"nest/internal/storage"
	"nest/internal/transfer"
)

// The appliance runs with the defaults nestd ships: 1 GB capacity,
// FIFO schedule, Adaptive model, 16 slots, NeST-managed lots, the
// connection front end on with a 2 minute idle reap.
const (
	capacity  = 1 << 30
	slots     = 16
	connIdle  = 2 * time.Minute
	applName  = "nest"
	benchUser = "perfbench"
)

// appliance is one running NeST under measurement.
type appliance struct {
	addrs   map[string]string
	disp    *dispatch.Dispatcher
	cm      *connmgr.Manager
	lots    *lots.Manager
	layers  *layerTimes // non-nil for the traced build
	dataDir string
	close   func()
}

// newCA returns the benchmark's trust anchor and the client credential.
func newCA() (*gsi.CA, *gsi.Credential) {
	ca := gsi.NewCA("/O=NeST/CN=perfbench-ca", []byte("perfbench-ca-key"))
	return ca, ca.Issue("/O=NeST/OU=bench/CN="+benchUser, 24*time.Hour, true)
}

// startCore builds the appliance through core.New, unchanged.
func startCore(ca *gsi.CA, dataDir string) (*appliance, error) {
	srv, err := core.New(core.Config{
		Name:            applName,
		DataDir:         dataDir,
		Capacity:        capacity,
		Scheduler:       core.SchedFIFO,
		Model:           transfer.Adaptive,
		Slots:           slots,
		CA:              ca,
		ConnIdleTimeout: connIdle,
	})
	if err != nil {
		return nil, err
	}
	a := &appliance{
		addrs:   map[string]string{},
		disp:    srv.Disp,
		cm:      srv.Disp.ConnManager(),
		lots:    srv.Store.Lots(),
		dataDir: dataDir,
		close:   srv.Close,
	}
	for _, p := range srv.Protocols() {
		a.addrs[p] = srv.Addr(p)
	}
	return a, nil
}

// startTraced builds the same appliance from the public constructors
// and options core.New uses, with the timing filesystem wrapper
// inserted between the storage manager and the backend.
func startTraced(ca *gsi.CA, dataDir string) (*appliance, error) {
	clock := sim.NewRealClock()
	var backend storage.FS
	if dataDir != "" {
		local, err := storage.NewLocalFS(dataDir, capacity)
		if err != nil {
			return nil, err
		}
		local.SetSyncOnClose(false)
		backend = local
	} else {
		backend = storage.NewMemFS(clock, capacity)
	}
	lt := newLayerTimes()
	fs := &timedFS{inner: backend, lt: lt}

	table := acl.NewTable(acl.Read|acl.Lookup, gsi.Anonymous)
	table.Set("/", acl.AuthUser, acl.AllRights)
	lotMgr := lots.NewManager(clock, capacity, lots.NeSTManaged, quota.NewManager(false))
	store := storage.NewManager(fs, table, lotMgr)
	xfer := transfer.NewManager(transfer.Options{
		Clock:  clock,
		Policy: sched.NewFIFO(),
		Slots:  slots,
		Model:  transfer.Adaptive,
	})
	disp := dispatch.New(clock, store, xfer)
	disp.SetName(applName)
	cm := connmgr.New(connmgr.Config{
		Clock:       clock,
		IdleTimeout: connIdle,
		Signals: connmgr.Signals{
			QueueDepth: xfer.QueueDepth,
			P99:        disp.MergedP99,
			InFlight:   xfer.Active,
		},
	})
	disp.SetConnManager(cm)

	verifier := gsi.NewVerifier(ca)
	httpHandler := httpx.NewHandler()
	httpHandler.SetStatus(disp.StatusPage)
	handlers := map[string]protocol.Handler{
		chirp.Proto:   chirp.NewHandler(verifier, true),
		httpx.Proto:   httpHandler,
		ftp.Proto:     ftp.NewHandler(ftp.Options{AllowAnon: true}),
		gridftp.Proto: gridftp.NewHandler(verifier),
		"nfs":         nfs.NewHandler(),
	}
	a := &appliance{
		addrs:   map[string]string{},
		disp:    disp,
		cm:      cm,
		lots:    lotMgr,
		layers:  lt,
		dataDir: dataDir,
		close: func() {
			disp.Close()
			xfer.Close()
		},
	}
	for proto, h := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			a.close()
			return nil, fmt.Errorf("listen (%s): %w", proto, err)
		}
		a.addrs[proto] = ln.Addr().String()
		if disp.Register(ln, proto) {
			go disp.Serve(ln, h)
		}
	}
	return a, nil
}

// shutdown stops the appliance and removes its data directory.
func (a *appliance) shutdown() {
	a.close()
	if a.dataDir != "" {
		os.RemoveAll(a.dataDir)
	}
}
