// Actually-distributed execution: P1 and P2 live in two separate OS
// processes connected only by a socketpair -- there is no shared address
// space that could accidentally hold both shares, which is the physical
// premise of the whole paper.
//
// The wire is the src/transport/ stack: CRC-checked length-prefixed frames
// (hard cap transport::kMaxFrameBytes -- a corrupt or hostile length prefix
// is a typed TransportError, never an unchecked allocation, never abort()),
// session-multiplexed over the socketpair, surfaced to the protocol code as
// a net::Channel (transport::MuxChannel), so the party objects run exactly
// the code the in-process driver runs.
//
// Both processes trace across the wire (DESIGN.md §10): each request frame
// carries the sender's (trace id, span id), the child parents its
// spans under the received context, and before exiting it ships its span
// set back over the same channel. The parent merges both processes into
// two_process_trace.json -- one Chrome/Perfetto trace in which each period's
// decryption is a single tree spanning both pid lanes.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>

#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"
#include "transport/channel.hpp"

namespace {

using namespace dlr;
using GG = group::TateSS256;

constexpr std::uint32_t kProtocolSession = 1;
constexpr int kPeriods = 3;

int run_p2(transport::Socket sock, schemes::DlrParty2<GG> p2) {
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(std::move(sock)));
  const auto session = mux.open_with_id(kProtocolSession);
  transport::MuxChannel ch(*session, net::DeviceId::P2);
  try {
    for (int period = 0; period < kPeriods; ++period) {
      {
        const Bytes& dec1 = ch.recv();
        // Adopt the request's trace context: this span (and the crypto spans
        // dec_respond opens beneath it) joins the parent process's tree.
        telemetry::ScopedSpan span("p2.dec", ch.last_trace());
        ch.send(net::DeviceId::P2, "dec.r2", p2.dec_respond(dec1));
      }
      {
        const Bytes& ref1 = ch.recv();
        telemetry::ScopedSpan span("p2.ref", ch.last_trace());
        ch.send(net::DeviceId::P2, "ref.r2", p2.ref_respond(ref1));
      }
    }
    // Ship this process's spans to the parent for the merged trace.
    const std::string jsonl = telemetry::to_jsonl(telemetry::ExportMeta{"two_process.p2"},
                                                  telemetry::Snapshot{},
                                                  telemetry::Tracer::global().spans());
    ch.send(net::DeviceId::P2, "trace.export", Bytes(jsonl.begin(), jsonl.end()));
  } catch (const transport::TransportError& e) {
    std::fprintf(stderr, "P2: transport error [%s]: %s\n",
                 transport::errc_name(e.code()), e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  const GG gg = group::make_tate_ss256();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), 64);

  // Trusted-dealer keygen in the parent, before the fork; the parent will
  // drop sk2 (it only moves into the child), the child never sees sk1.
  crypto::Rng gen_rng(20120716);
  auto kg = schemes::DlrCore<GG>::gen(gg, prm, gen_rng);

  auto [parent_sock, child_sock] = transport::Socket::pair();

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }

  if (pid == 0) {
    // ---- child: device P2 (e.g. the smart card) ------------------------------
    parent_sock.close();
    schemes::DlrParty2<GG> p2(gg, prm, std::move(kg.sk2), crypto::Rng(2));
    _exit(run_p2(std::move(child_sock), std::move(p2)));
  }

  // ---- parent: device P1 (the main processor) + the encrypting user ---------
  child_sock.close();
  schemes::DlrParty1<GG> p1(gg, prm, kg.pk, std::move(kg.sk1), schemes::P1Mode::Plain,
                            crypto::Rng(1));
  crypto::Rng rng = crypto::Rng::from_os_entropy();
  bool all_ok = true;
  {
    transport::SessionMux mux(std::make_shared<transport::FramedConn>(std::move(parent_sock)));
    const auto session = mux.open_with_id(kProtocolSession);
    transport::MuxChannel ch(*session, net::DeviceId::P1);
    try {
      for (int period = 0; period < kPeriods; ++period) {
        const auto m = gg.gt_random(rng);
        const auto c = schemes::DlrCore<GG>::enc(gg, kg.pk, m, rng);
        {
          // Root span of this period's trace; the frame below carries its
          // context, so the child's p2.dec subtree lands underneath it.
          telemetry::ScopedSpan span("p1.dec");
          ch.send(net::DeviceId::P1, "dec.r1", p1.dec_round1(c));
          const auto out = p1.dec_finish(ch.recv());
          const bool ok = gg.gt_eq(out, m);
          all_ok = all_ok && ok;
          std::printf("period %d: cross-process decryption %s\n", period,
                      ok ? "CORRECT" : "WRONG");
        }
        {
          telemetry::ScopedSpan span("p1.ref");
          ch.send(net::DeviceId::P1, "ref.r1", p1.ref_round1());
          p1.ref_finish(ch.recv());
        }
        std::printf("period %d: cross-process refresh done\n", period);
      }
      // The child's parting message is its span set; merge into one trace.
      const Bytes& remote = ch.recv();
      const auto p2_spans =
          telemetry::import_jsonl(std::string(remote.begin(), remote.end())).spans;
      const auto p1_spans = telemetry::Tracer::global().spans();
      std::set<std::uint64_t> p1_traces, shared;
      for (const auto& s : p1_spans) p1_traces.insert(s.trace_id);
      for (const auto& s : p2_spans)
        if (p1_traces.count(s.trace_id)) shared.insert(s.trace_id);
      const std::string trace = telemetry::to_chrome_trace(
          {{1, "P1 (main processor)", p1_spans}, {2, "P2 (auxiliary device)", p2_spans}});
      const char* path = "two_process_trace.json";
      std::ofstream(path, std::ios::binary) << trace;
      std::printf(
          "merged Chrome trace: %zu P1 spans + %zu P2 spans, %zu cross-process "
          "trace(s) -> %s\n",
          p1_spans.size(), p2_spans.size(), shared.size(), path);
    } catch (const transport::TransportError& e) {
      std::fprintf(stderr, "P1: transport error [%s]: %s\n",
                   transport::errc_name(e.code()), e.what());
      all_ok = false;
    }
    std::printf("public transcript: %zu messages, %zu bytes over the wire\n",
                ch.transcript().count(), ch.transcript().total_bytes());
  }
  int status = 0;
  waitpid(pid, &status, 0);
  std::printf("child exited %s; shares never shared an address space.\n",
              (WIFEXITED(status) && WEXITSTATUS(status) == 0) ? "cleanly" : "ABNORMALLY");
  return all_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0 ? 0 : 1;
}
