/* ritas_c.h — C API for the RITAS stack, faithful to the paper's §3.1.
 *
 * The original implementation is a C shared library whose interface
 * revolves around an opaque `ritas_t` context: initialize it, add the
 * participating processes, call the service requests, destroy it. This
 * header reproduces that interface over the C++ core:
 *
 *   ritas_t* r = ritas_init(n, self_id, "shared-secret", secret_len);
 *   ritas_proc_add_ipv4(r, id, "10.0.0.2", 7000);   // once per process
 *   ritas_start(r);                                  // connect the mesh
 *   ritas_rb_bcast(r, buf, len);                     // or eb/ab
 *   ritas_rb_recv(r, &origin, out, cap);             // blocking
 *   int b = ritas_bc(r, 1);                          // consensus services
 *   ritas_destroy(r);
 *
 * All functions return 0 (or a non-negative count) on success and a
 * negative RITAS_E* code on failure. Buffers are caller-owned; *_recv
 * copies into the caller's buffer and fails with RITAS_ETOOBIG if it does
 * not fit. The library never throws across this boundary.
 */
#ifndef RITAS_C_H
#define RITAS_C_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct ritas_t ritas_t;

enum {
  RITAS_OK = 0,
  RITAS_EINVAL = -1,    /* bad argument */
  RITAS_ESTATE = -2,    /* wrong state (e.g. service call before start) */
  RITAS_ENET = -3,      /* mesh setup / network failure */
  RITAS_ETOOBIG = -4,   /* caller buffer too small (value preserved) */
  RITAS_EINTERNAL = -5, /* unexpected internal failure */
  RITAS_ESHUTDOWN = -6, /* session stopped while (or before) blocking */
  RITAS_EAGAIN = -7     /* nothing available within the timeout */
};

/* Tunables for ritas_set_opt (pre-start only). The batch options switch
 * atomic-broadcast payload batching on and size its limits; they change
 * the AB_MSG wire format, so every correct process must configure them
 * identically. */
enum {
  RITAS_OPT_BATCH_ENABLED = 1,   /* 0 or 1 (default 0) */
  RITAS_OPT_BATCH_MAX_MSGS = 2,  /* messages per batch, > 0 (default 64) */
  RITAS_OPT_BATCH_MAX_BYTES = 3, /* framed bytes per batch, > 0 (default 16384) */
  RITAS_OPT_RECV_WINDOW = 4,     /* rb/eb broadcasts an origin may run
                                  * ahead of its last delivered one, > 0 */
  RITAS_OPT_MIN_START_LINKS = 5, /* links ritas_start waits for; 0 = n-f-1 */
  /* 6 is retired (formerly the consensus group id; a session owns its
   * mesh, so it always runs group 0); see below. */
  RITAS_OPT_RB_VARIANT = 7,      /* reliable-broadcast algorithm: 0 = Bracha
                                  * (default), 1 = Imbs-Raynal 2-step
                                  * (needs n >= 6; enforced at ritas_start,
                                  * which fails with RITAS_EINVAL below
                                  * that). Variants use disjoint message
                                  * tags; all correct processes of a group
                                  * must pick the same one. */
  RITAS_OPT_BC_VARIANT = 8       /* binary-consensus algorithm: 0 = Bracha
                                  * (default), 1 = Crain. Selecting Crain
                                  * also switches the stack to the dealt
                                  * common coin (derived from the group
                                  * key), which its agreement argument
                                  * requires. */
  /* 6, 9, 10 and 11 are retired (formerly the consensus group id,
   * execution-pipeline reactor threads, HMAC worker threads and the
   * transport send-batching switch; sends are always batched now);
   * ritas_set_opt rejects them with RITAS_EINVAL and the values are never
   * reused. */
};

/* Per-link channel health, as reported by ritas_link_states. Values match
 * the C++ ritas::LinkState enum. */
enum {
  RITAS_LINK_DOWN = 0,       /* no connection, no retry scheduled */
  RITAS_LINK_CONNECTING = 1, /* TCP connect or session handshake in flight */
  RITAS_LINK_UP = 2,         /* session established; frames flow */
  RITAS_LINK_BACKOFF = 3     /* waiting out a jittered backoff before redial */
};

/* Transport counters for ritas_stat. The ids are the c_id column of the
 * transport counter list (RITAS_TRANSPORT_COUNTERS in net/tcp_transport.h),
 * which ritas_stat reads them through. */
enum {
  RITAS_STAT_FRAMES_SENT = 1,
  RITAS_STAT_FRAMES_RECEIVED = 2,
  RITAS_STAT_FRAMES_RETRANSMITTED = 3, /* re-writes after counter resync */
  RITAS_STAT_BYTES_SENT = 4,
  RITAS_STAT_MAC_FAILURES = 5,
  RITAS_STAT_REPLAY_DROPS = 6,     /* stale counter, current session */
  RITAS_STAT_SESSION_REJECTS = 7,  /* frame tagged with an old session id */
  RITAS_STAT_COUNTER_GAPS = 8,     /* frames lost to send-queue overflow */
  RITAS_STAT_OVERSIZE_DROPS = 9,
  RITAS_STAT_QUEUE_DROPS = 10,     /* never-sent frames evicted by the cap */
  RITAS_STAT_LINK_RECONNECTS = 11, /* handshakes that revived a dead link */
  RITAS_STAT_HANDSHAKE_FAILURES = 12,
  /* 13 and 14 (formerly HMAC worker counters) and 15-17 (formerly
   * execution-pipeline handoff counters and reactor queue depth) are
   * retired; ritas_stat rejects them with RITAS_EINVAL and the values are
   * never reused. */
  /* Transport fast-path counters (multi-frame sendmsg batching). */
  RITAS_STAT_SENDMSG_CALLS = 18,        /* data-frame sendmsg syscalls */
  RITAS_STAT_BYTES_TO_KERNEL = 19,      /* bytes the kernel accepted */
  RITAS_STAT_PEER_CLOSED = 20,          /* data sends failed with
                                         * ECONNRESET/EPIPE: peer closed */
  RITAS_STAT_BATCH_COPY_BYTES = 21      /* payload bytes copied to
                                         * assemble a batch; stays 0 */
};

/* Context management ----------------------------------------------------- */

/* Allocates a context for a group of n processes in which this process has
 * identifier self (0 <= self < n). `secret` is the dealer-distributed
 * master secret all group members share (pairwise keys derive from it). */
ritas_t* ritas_init(uint32_t n, uint32_t self, const uint8_t* secret,
                    size_t secret_len);

/* Registers the address of process `id`. Every id in [0, n) must be added
 * (including self: its port is the local listen port) before ritas_start. */
int ritas_proc_add_ipv4(ritas_t* r, uint32_t id, const char* host, uint16_t port);

/* Sets a tunable (see RITAS_OPT_*). Only valid before ritas_start
 * (RITAS_ESTATE afterwards); RITAS_EINVAL for an unknown option or an
 * out-of-range value. */
int ritas_set_opt(ritas_t* r, int opt, long value);

/* Establishes the authenticated TCP mesh and starts the protocol stack's
 * thread. Blocks until enough links are up for the stack to make progress
 * (RITAS_OPT_MIN_START_LINKS, default n-f-1); the remaining links keep
 * connecting — and broken links keep reconnecting — in the background. */
int ritas_start(ritas_t* r);

/* Stops the session: shuts the protocol stack down and wakes every thread
 * blocked in a *_recv call or in ritas_bc/ritas_mvc/ritas_vc with
 * RITAS_ESHUTDOWN; service calls made afterwards fail with RITAS_ESTATE.
 * The context stays valid (so those threads can return safely) until
 * ritas_destroy. Idempotent; RITAS_ESTATE before ritas_start. */
int ritas_stop(ritas_t* r);

/* Tears everything down. Safe on NULL. */
void ritas_destroy(ritas_t* r);

/* Link probes ------------------------------------------------------------- */

/* Writes the health of every pairwise channel into states[0..n) (one
 * RITAS_LINK_* byte per process id; the self entry reads RITAS_LINK_UP)
 * and returns n. RITAS_ETOOBIG if cap < n, RITAS_ESTATE before start.
 * Links self-heal in the background: a RITAS_LINK_BACKOFF link redials on
 * its own, so a one-shot snapshot of a down link is not a failure. */
long ritas_link_states(ritas_t* r, uint8_t* states, size_t cap);

/* Returns the current value of one RITAS_STAT_* transport counter, or a
 * negative error (RITAS_EINVAL for an unknown stat, RITAS_ESTATE before
 * start). Counters only grow while the session runs. */
long long ritas_stat(ritas_t* r, int stat);

/* Broadcast services ------------------------------------------------------ */

int ritas_rb_bcast(ritas_t* r, const uint8_t* msg, size_t len);
int ritas_eb_bcast(ritas_t* r, const uint8_t* msg, size_t len);
int ritas_ab_bcast(ritas_t* r, const uint8_t* msg, size_t len);

/* Block until the next delivery of the respective broadcast service; the
 * sender's id is stored in *origin (may be NULL). Returns the message
 * length, or RITAS_ETOOBIG if it exceeds `cap` (the message stays queued). */
long ritas_rb_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap);
long ritas_eb_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap);
long ritas_ab_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap);

/* ritas_ab_recv with a deadline: timeout_ms < 0 blocks forever, 0 polls,
 * > 0 waits at most that long. RITAS_EAGAIN when nothing was delivered in
 * time; otherwise identical to ritas_ab_recv (including RITAS_ETOOBIG
 * preserving the message). */
long ritas_ab_recv_timeout(ritas_t* r, uint32_t* origin, uint8_t* buf,
                           size_t cap, long timeout_ms);

/* Seals the open atomic-broadcast batch immediately. No-op (still
 * RITAS_OK) when batching is off or nothing is buffered. */
int ritas_ab_flush(ritas_t* r);

/* Consensus services ------------------------------------------------------ */

/* Binary consensus: proposes `proposal` (0/1), blocks, returns the decision
 * (0/1) or a negative error. All processes must call the consensus
 * services in the same order. Like the other consensus calls, it returns
 * RITAS_ESHUTDOWN when ritas_stop cuts the wait short and RITAS_ESTATE
 * when called after ritas_stop. */
int ritas_bc(ritas_t* r, int proposal);

/* Multi-valued consensus: proposes msg, blocks, writes the decision into
 * buf and returns its length; returns 0 with *decided_default = 1 when the
 * decision is the default value ⊥. */
long ritas_mvc(ritas_t* r, const uint8_t* msg, size_t len, uint8_t* buf,
               size_t cap, int* decided_default);

/* Vector consensus: proposes msg, blocks, fills per-process entries.
 * lens[i] receives the length of entry i or -1 for ⊥; entry i is written
 * at buf + i*entry_cap. Returns 0 on success. */
int ritas_vc(ritas_t* r, const uint8_t* msg, size_t len, uint8_t* buf,
             size_t entry_cap, long* lens);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* RITAS_C_H */
