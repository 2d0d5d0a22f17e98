(** A blocking client for the scheduling service: one Unix-domain
    connection, one in-flight request at a time.  The load
    generator ([ischedc load]) opens one of these per concurrency domain; the CLI and
    the tests use it for single-shot requests. *)

type t

(** [connect path] — connect to the daemon's socket.  Raises
    [Unix.Unix_error] when the daemon is not there. *)
val connect : string -> t

(** [request t req] — send one request and wait for its response.
    [Error] describes a transport- or codec-level failure (peer closed,
    truncated frame, undecodable response); a server-side failure is a
    normal [Ok (Protocol.Error _)]. *)
val request : t -> Protocol.request -> (Protocol.response, string) result

(** [request_raw t req] — {!request} without decoding: the raw response
    payload.  What the load generator times (parsing a response the
    caller may not need is client-side work, not service latency);
    decode later with {!Protocol.decode_response}. *)
val request_raw : t -> Protocol.request -> (string, string) result

(** [request_exn t req] — {!request}, raising [Failure] on transport
    errors. *)
val request_exn : t -> Protocol.request -> Protocol.response

val close : t -> unit

(** [with_connection path f] — connect, run [f], close (also on
    exception). *)
val with_connection : string -> (t -> 'a) -> 'a
