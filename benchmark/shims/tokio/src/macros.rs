//! [`select!`](crate::select), [`join!`](crate::join) and
//! [`pin!`](crate::pin), as `macro_rules`.
//!
//! `select!` differs from tokio's in two ways a caller can observe:
//! branches are polled in source order (tokio starts at a random branch
//! unless told `biased;`), and branch patterns must be irrefutable.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Which branch of a `select!` finished, carrying its output.
#[doc(hidden)]
pub enum Out<A, B, C, D, E, F> {
    _0(A),
    _1(B),
    _2(C),
    _3(D),
    _4(E),
    _5(F),
    /// Every branch was disabled by its `if` precondition.
    Disabled,
}

/// Poll one optional (precondition-gated) branch future.
#[doc(hidden)]
pub fn poll_branch<Fut: Future>(
    fut: Pin<&mut Option<Fut>>,
    cx: &mut Context<'_>,
    any_enabled: &mut bool,
) -> Poll<Fut::Output> {
    match fut.as_pin_mut() {
        Some(f) => {
            *any_enabled = true;
            f.poll(cx)
        }
        None => Poll::Pending,
    }
}

/// Wait on several futures at once and run the handler of the first to
/// finish; the others are dropped (cancelled) before the handler runs.
///
/// ```ignore
/// tokio::select! {
///     v = rx.recv() => handle(v),
///     _ = shutdown.notified(), if armed => break,
///     else => return,
/// }
/// ```
///
/// Up to six branches. Branches are polled in source order; a branch
/// whose `if` precondition is false is neither evaluated nor polled; the
/// `else` handler runs when every branch is disabled (without one that
/// panics, as in tokio).
#[macro_export]
macro_rules! select {
    (biased; $($rest:tt)*) => { $crate::select!($($rest)*) };
    ($($tokens:tt)*) => { $crate::__select_parse!([] $($tokens)*) };
}

/// Normalises `select!` branches into `{(pat) (future) (cond) (handler)}`
/// groups, then hands them to `__select_build`.
#[doc(hidden)]
#[macro_export]
macro_rules! __select_parse {
    // else branch (always last)
    ([$($acc:tt)*] else => $body:block $(,)?) => {
        $crate::__select_build!([$($acc)*] ($body))
    };
    ([$($acc:tt)*] else => $body:expr $(,)?) => {
        $crate::__select_build!([$($acc)*] ($body))
    };
    // with precondition
    ([$($acc:tt)*] $p:pat = $f:expr, if $c:expr => $body:block , $($rest:tt)*) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) ($c) ($body)}] $($rest)*)
    };
    ([$($acc:tt)*] $p:pat = $f:expr, if $c:expr => $body:block $($rest:tt)*) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) ($c) ($body)}] $($rest)*)
    };
    ([$($acc:tt)*] $p:pat = $f:expr, if $c:expr => $body:expr , $($rest:tt)*) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) ($c) ($body)}] $($rest)*)
    };
    ([$($acc:tt)*] $p:pat = $f:expr, if $c:expr => $body:expr) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) ($c) ($body)}])
    };
    // without precondition
    ([$($acc:tt)*] $p:pat = $f:expr => $body:block , $($rest:tt)*) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) (true) ($body)}] $($rest)*)
    };
    ([$($acc:tt)*] $p:pat = $f:expr => $body:block $($rest:tt)*) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) (true) ($body)}] $($rest)*)
    };
    ([$($acc:tt)*] $p:pat = $f:expr => $body:expr , $($rest:tt)*) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) (true) ($body)}] $($rest)*)
    };
    ([$($acc:tt)*] $p:pat = $f:expr => $body:expr) => {
        $crate::__select_parse!([$($acc)* {($p) ($f) (true) ($body)}])
    };
    // out of tokens, no else branch
    ([$($acc:tt)*]) => {
        $crate::__select_build!([$($acc)*] (
            panic!("all branches are disabled and there is no else branch")
        ))
    };
}

/// Emits the select: futures are created and polled inside an inner
/// block so they are dropped before the chosen handler runs, and the
/// handlers sit in a plain `match` so `break`/`continue`/`return`/`?`
/// inside them act on the caller's function.
#[doc(hidden)]
#[macro_export]
macro_rules! __select_build {
    ([$({($p:pat) ($f:expr) ($c:expr) ($body:expr)})+] ($else:expr)) => {
        $crate::__select_build!(@tag [$({($p) ($f) ($c) ($body)})+] [_0 _1 _2 _3 _4 _5] [] ($else))
    };
    // Pair each branch with a variant name and a fresh binding.
    (@tag [{($p:pat) ($f:expr) ($c:expr) ($body:expr)} $($more:tt)*] [$v:ident $($vs:ident)*] [$($done:tt)*] ($else:expr)) => {
        $crate::__select_build!(@tag [$($more)*] [$($vs)*] [$($done)* {$v ($p) ($f) ($c) ($body)}] ($else))
    };
    (@tag [] [$($vs:ident)*] [$({$v:ident ($p:pat) ($f:expr) ($c:expr) ($body:expr)})+] ($else:expr)) => {{
        let __select_out = {
            $(
                #[allow(non_snake_case)]
                let mut $v = ::std::pin::pin!(if $c {
                    ::std::option::Option::Some($f)
                } else {
                    ::std::option::Option::None
                });
            )+
            ::std::future::poll_fn(|__cx| {
                let mut __any = false;
                $(
                    if let ::std::task::Poll::Ready(__v) =
                        $crate::macros::poll_branch($v.as_mut(), __cx, &mut __any)
                    {
                        return ::std::task::Poll::Ready($crate::macros::Out::$v(__v));
                    }
                )+
                // Never taken: gives the variants no branch owns a type.
                $(
                    if false {
                        return ::std::task::Poll::Ready($crate::macros::Out::$vs(()));
                    }
                )*
                if __any {
                    ::std::task::Poll::Pending
                } else {
                    ::std::task::Poll::Ready($crate::macros::Out::Disabled)
                }
            })
            .await
        };
        #[allow(unreachable_patterns, unused_variables)]
        match __select_out {
            $( $crate::macros::Out::$v($p) => $body, )+
            $crate::macros::Out::Disabled => $else,
            _ => unreachable!("select! produced a variant no branch owns"),
        }
    }};
}

/// Pin futures to the stack: `pin!(fut)` rebinds `fut` as
/// `Pin<&mut _>`; `pin! { let x = expr; }` declares and pins.
#[macro_export]
macro_rules! pin {
    ($($x:ident),* $(,)?) => {
        $(
            let mut $x = $x;
            #[allow(unused_mut)]
            // SAFETY: the original binding is shadowed, so the value can
            // no longer be moved; it stays put until the scope ends.
            let mut $x = unsafe { ::std::pin::Pin::new_unchecked(&mut $x) };
        )*
    };
    ($(let $x:ident = $init:expr;)*) => {
        $(
            let $x = $init;
            $crate::pin!($x);
        )*
    };
}

/// Poll several futures concurrently on the current task until all have
/// finished; evaluates to a tuple of their outputs.
#[macro_export]
macro_rules! join {
    ($($f:expr),+ $(,)?) => {{
        $crate::__join_build!([] [_0 _1 _2 _3 _4 _5 _6 _7] $($f,)+)
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __join_build {
    ([$($done:tt)*] [$v:ident $($vs:ident)*] $f:expr, $($rest:tt)*) => {
        $crate::__join_build!([$($done)* {$v ($f)}] [$($vs)*] $($rest)*)
    };
    ([$({$v:ident ($f:expr)})+] [$($vs:ident)*]) => {{
        $(
            #[allow(non_snake_case)]
            let mut $v = ::std::pin::pin!($crate::macros::MaybeDone::new($f));
        )+
        ::std::future::poll_fn(|__cx| {
            let mut __all = true;
            $( __all &= $v.as_mut().poll_done(__cx); )+
            if __all {
                ::std::task::Poll::Ready(($($v.as_mut().take(),)+))
            } else {
                ::std::task::Poll::Pending
            }
        })
        .await
    }};
}

/// A future that keeps its output once finished, for `join!`.
#[doc(hidden)]
pub enum MaybeDone<F: Future> {
    Running(F),
    Done(Option<F::Output>),
}

impl<F: Future> MaybeDone<F> {
    #[doc(hidden)]
    pub fn new(f: F) -> Self {
        MaybeDone::Running(f)
    }

    /// Poll the inner future unless it has finished; `true` once done.
    #[doc(hidden)]
    pub fn poll_done(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> bool {
        // SAFETY: the `Running` future is only ever accessed pinned, and
        // is dropped in place when overwritten by `Done`; the `Done`
        // payload is plain data that is never pinned-dependent.
        let this = unsafe { self.as_mut().get_unchecked_mut() };
        match this {
            MaybeDone::Running(f) => {
                // SAFETY: as above.
                match unsafe { Pin::new_unchecked(f) }.poll(cx) {
                    Poll::Ready(out) => {
                        *this = MaybeDone::Done(Some(out));
                        true
                    }
                    Poll::Pending => false,
                }
            }
            MaybeDone::Done(_) => true,
        }
    }

    /// Take the output. Panics if the future has not finished or the
    /// output was already taken.
    #[doc(hidden)]
    pub fn take(self: Pin<&mut Self>) -> F::Output {
        // SAFETY: only the `Done` payload is moved, which is never pinned.
        match unsafe { self.get_unchecked_mut() } {
            MaybeDone::Done(out) => out.take().expect("join! output taken twice"),
            MaybeDone::Running(_) => panic!("join! output taken before completion"),
        }
    }
}
