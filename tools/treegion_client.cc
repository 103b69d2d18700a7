/**
 * @file
 * treegion-client — thin client for the treegiond compile service.
 *
 * Sends one request per invocation and prints the response: the
 * serving analogue of running treegionc locally, useful from shell
 * scripts and CI.
 *
 * Usage:
 *   treegion-client --server ADDR [options] [input.tir | -]
 *   treegion-client --cluster A,B,C [options] [input.tir | -]
 *
 * ADDR is "unix:/path", a bare absolute path, or "host:port".
 *
 * --cluster routes the request client-side over the consistent-hash
 * ring the replicas share: the request's cache key picks the owning
 * replica, and a replica that is unreachable or draining is skipped
 * (the ring is rebuilt over the survivors and the request retried).
 * The serving replica's address is printed as "member: ADDR" on
 * stderr unless --quiet, so scripts can reconcile which replica
 * answered.
 *
 * Options:
 *   --options "scheme=tree heuristic=gw width=4 ..."  pipeline
 *           configuration (encodePipelineOptions format)
 *   --function NAME        compile this function (default: first)
 *   --deadline-ms N        give up if queued longer than this
 *   --print-schedule       ask for the full region schedules
 *   --no-cache             bypass the server's compile cache
 *   --no-profile           keep the input file's profile weights
 *   --profile-seed S / --profile-runs N   training profile
 *   --ping                 health check (no input needed)
 *   --stats                fetch the /stats JSON (no input needed)
 *   --trace-spans FILE     record this invocation's spans (the
 *                          client-side "call"/"clock-sync" spans)
 *                          and append them to FILE as
 *                          treegion-span/v1 JSONL; the trace id is
 *                          propagated to the server, so FILE merges
 *                          with the replicas' --trace-spans files
 *   --trace-sample R       sampling probability in [0,1] (default 1)
 *   --quiet                print only the response body
 *
 * Exit codes: 0 ok, 1 error/transport failure, 3 rejected
 * (backpressure — retry after the hinted delay), 4 deadline
 * exceeded, 5 server shutting down.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "service/client.h"
#include "service/ring.h"
#include "support/spans.h"
#include "support/string_utils.h"

using namespace treegion;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --server ADDR [options] [input.tir | -]\n"
                 "see the file header or README for options\n",
                 argv0);
    return 2;
}

int
statusExitCode(const std::string &status)
{
    if (status == service::status::kOk)
        return 0;
    if (status == service::status::kRejected)
        return 3;
    if (status == service::status::kDeadline)
        return 4;
    if (status == service::status::kShuttingDown)
        return 5;
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string server_addr;
    std::vector<std::string> cluster;
    std::string input;
    std::string span_path;
    double span_sample = 1.0;
    bool quiet = false;
    service::Request req;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--server") {
            server_addr = next();
        } else if (arg == "--cluster") {
            cluster = support::splitString(next(), ',');
        } else if (arg == "--options") {
            req.options = next();
        } else if (arg == "--function") {
            req.function = next();
        } else if (arg == "--deadline-ms") {
            support::parseFlagNumber(arg, next(), req.deadline_ms);
        } else if (arg == "--print-schedule") {
            req.want_schedule = true;
        } else if (arg == "--no-cache") {
            req.no_cache = true;
        } else if (arg == "--no-profile") {
            req.profile = false;
        } else if (arg == "--profile-seed") {
            support::parseFlagNumber(arg, next(), req.profile_seed);
        } else if (arg == "--profile-runs") {
            support::parseFlagNumber(arg, next(), req.profile_runs);
        } else if (arg == "--ping") {
            req.verb = "ping";
        } else if (arg == "--stats") {
            req.verb = "stats";
        } else if (arg == "--trace-spans") {
            span_path = next();
        } else if (arg == "--trace-sample") {
            support::parseFlagNumber(arg, next(), span_sample);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else if (input.empty()) {
            input = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (server_addr.empty() == cluster.empty())
        return usage(argv[0]);  // exactly one of --server/--cluster
    if (req.verb == "compile") {
        if (input.empty())
            return usage(argv[0]);
        if (input == "-") {
            std::ostringstream buffer;
            buffer << std::cin.rdbuf();
            req.module_text = buffer.str();
        } else {
            std::ifstream file(input);
            if (!file) {
                std::fprintf(stderr, "cannot open %s\n",
                             input.c_str());
                return 1;
            }
            std::ostringstream buffer;
            buffer << file.rdbuf();
            req.module_text = buffer.str();
        }
    }

    if (!span_path.empty()) {
        auto &spans = support::SpanCollector::instance();
        spans.setService("treegion-client");
        spans.configure(span_sample);
    }
    // Appends (many invocations share one file) on every exit path,
    // success or transport failure — failed attempts are spans too.
    auto finish = [&](int rc) {
        if (!span_path.empty() &&
            !support::SpanCollector::instance().writeJsonl(
                span_path, /*append=*/true))
            std::fprintf(stderr, "cannot write spans to %s\n",
                         span_path.c_str());
        return rc;
    };

    std::string error;
    service::Response resp;
    std::string served_by;
    std::string failover_note;
    if (!cluster.empty()) {
        service::ClusterClient client(cluster);
        if (!client.call(req, &resp, &error)) {
            std::fprintf(stderr, "call: %s\n", error.c_str());
            return finish(1);
        }
        served_by = client.lastMember();
        // Failovers are silent by design; make their price visible.
        for (const auto &[addr, led] : client.ledger()) {
            if (led.failed_attempts > 0)
                failover_note += support::strprintf(
                    "failed-attempts: %s n=%llu wasted-ms=%.1f\n",
                    addr.c_str(),
                    static_cast<unsigned long long>(
                        led.failed_attempts),
                    led.failed_ms);
        }
    } else {
        auto client = service::Client::connect(server_addr, &error);
        if (!client) {
            std::fprintf(stderr, "connect: %s\n", error.c_str());
            return finish(1);
        }
        // Direct path: estimate this server's clock offset so the
        // merged trace can align our spans with its span file.
        std::string sync_error;
        client->syncClock(&sync_error);
        if (!client->call(req, &resp, &error)) {
            std::fprintf(stderr, "call: %s\n", error.c_str());
            return finish(1);
        }
    }

    if (!quiet) {
        if (!served_by.empty())
            std::fprintf(stderr, "member: %s\n", served_by.c_str());
        if (!failover_note.empty())
            std::fputs(failover_note.c_str(), stderr);
        std::fprintf(stderr, "status: %s%s%s\n", resp.status.c_str(),
                     resp.cached ? " (cached)" : "",
                     resp.error.empty()
                         ? ""
                         : ("  [" + resp.error + "]").c_str());
        if (resp.retry_after_ms > 0)
            std::fprintf(stderr, "retry-after-ms: %lld\n",
                         static_cast<long long>(resp.retry_after_ms));
        if (resp.compile_ms > 0)
            std::fprintf(stderr, "compile-ms: %.3f\n",
                         resp.compile_ms);
    }
    std::fputs(resp.body.c_str(), stdout);
    return finish(statusExitCode(resp.status));
}
